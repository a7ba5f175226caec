//! Crash-consistent training checkpoints.
//!
//! A [`TrainCheckpoint`] is a *complete* capture of the training loop —
//! model parameters, Adam moments and step count, the training RNG
//! (including its pending Box–Muller spare), the in-progress epoch's
//! shuffled window order and minibatch cursor, the partial-epoch loss
//! accumulator, the per-epoch report so far, and the fault counters.
//! Restoring it and continuing therefore reproduces the uninterrupted
//! run **bitwise**: same loss trajectory, same final weights, at any
//! `STOD_THREADS` (the trainer's shard reduction is already
//! schedule-independent).
//!
//! # On-disk format
//!
//! Version 1, in a [`stod_faultline::codec`] envelope: magic `STCK`,
//! version `u32`, the fields in declaration order (little-endian;
//! vectors as `u64` length + elements), then a CRC-32 (IEEE) footer over
//! everything before it. Files are written via
//! [`stod_faultline::io::atomic_write`] — write-tmp, fsync, rename — so a
//! crash, full disk, or interrupted syscall during a save can never
//! damage the previous checkpoint. Corruption on load surfaces as
//! [`StoreError::Checksum`], distinct from [`StoreError::Malformed`]
//! (wrong-format file) and [`StoreError::Io`].

use std::path::Path;
use stod_faultline::codec::{self, Reader, StoreError, Writer};
use stod_tensor::rng::RngState;
use stod_traffic::Window;

/// A complete, resumable capture of the training loop. See the module
/// docs for the determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// 0-based epoch the cursor points into.
    pub epoch: u64,
    /// Next minibatch index within [`Self::order`]. When `order` is empty
    /// the checkpoint sits at the *start* of `epoch` (nothing of it run).
    pub next_mb: u64,
    /// The in-progress epoch's full shuffled window order; empty at an
    /// epoch boundary.
    pub order: Vec<Window>,
    /// Training RNG state, captured after the last completed step.
    pub rng: RngState,
    /// Optimizer steps completed so far.
    pub steps: u64,
    /// Partial-epoch loss accumulator (sum over completed minibatches).
    pub epoch_loss: f64,
    /// Minibatches accumulated into [`Self::epoch_loss`].
    pub batches: u64,
    /// Non-finite minibatches seen so far.
    pub nonfinite_batches: u64,
    /// Rollbacks performed so far.
    pub rollbacks: u64,
    /// Checkpoint saves that failed (training continued).
    pub ckpt_save_failures: u64,
    /// Best validation EMD so far, with the epoch it occurred in.
    pub best_val: Option<(u64, f64)>,
    /// Mean training loss of each completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Validation EMD of each completed epoch (empty without a val set).
    pub val_emd: Vec<f64>,
    /// Learning rate of each started epoch.
    pub epoch_lrs: Vec<f32>,
    /// Serialized model parameters (`ParamStore::to_bytes`, with its own
    /// inner CRC).
    pub params: Vec<u8>,
    /// Serialized optimizer state (`Adam::state_to_bytes`).
    pub opt: Vec<u8>,
}

const MAGIC: &[u8; 4] = b"STCK";
const VERSION: u32 = 1;

impl TrainCheckpoint {
    /// Serializes the checkpoint (format version 1, CRC-32 footer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::header(MAGIC, VERSION);
        w.u64(self.epoch);
        w.u64(self.next_mb);
        w.u64(self.order.len() as u64);
        for win in &self.order {
            for v in [win.t_end, win.s, win.h] {
                w.u64(v as u64);
            }
        }
        for s in self.rng.s {
            w.u64(s);
        }
        match self.rng.gauss_spare {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                w.f64(v);
            }
        }
        w.u64(self.steps);
        w.f64(self.epoch_loss);
        for c in [
            self.batches,
            self.nonfinite_batches,
            self.rollbacks,
            self.ckpt_save_failures,
        ] {
            w.u64(c);
        }
        match self.best_val {
            None => w.u8(0),
            Some((epoch, emd)) => {
                w.u8(1);
                w.u64(epoch);
                w.f64(emd);
            }
        }
        w.u64(self.epoch_losses.len() as u64);
        w.f32s(&self.epoch_losses);
        w.u64(self.val_emd.len() as u64);
        for &v in &self.val_emd {
            w.f64(v);
        }
        w.u64(self.epoch_lrs.len() as u64);
        w.f32s(&self.epoch_lrs);
        for blob in [&self.params, &self.opt] {
            w.u64(blob.len() as u64);
            w.bytes(blob);
        }
        let _span = stod_obs::span!("ckpt/crc");
        w.seal()
    }

    /// Deserializes a checkpoint, verifying the CRC footer before any
    /// field is interpreted.
    pub fn from_bytes(bytes: &[u8]) -> Result<TrainCheckpoint, StoreError> {
        let mut r = {
            let _span = stod_obs::span!("ckpt/crc");
            codec::open(bytes, MAGIC, VERSION)?
        };
        let epoch = r.u64()?;
        let next_mb = r.u64()?;
        let order_len = r.len_u64(24)?;
        let mut order = Vec::with_capacity(order_len);
        for _ in 0..order_len {
            order.push(Window {
                t_end: r.u64()? as usize,
                s: r.u64()? as usize,
                h: r.u64()? as usize,
            });
        }
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = r.u64()?;
        }
        let gauss_spare = match r.u8()? {
            0 => None,
            1 => Some(r.f64()?),
            k => return Err(StoreError::Malformed(format!("bad rng spare flag {k}"))),
        };
        let steps = r.u64()?;
        let epoch_loss = r.f64()?;
        let batches = r.u64()?;
        let nonfinite_batches = r.u64()?;
        let rollbacks = r.u64()?;
        let ckpt_save_failures = r.u64()?;
        let best_val = match r.u8()? {
            0 => None,
            1 => Some((r.u64()?, r.f64()?)),
            k => return Err(StoreError::Malformed(format!("bad best-val flag {k}"))),
        };
        let n = r.len_u64(4)?;
        let epoch_losses = r.f32s(n)?;
        let n = r.len_u64(8)?;
        let val_emd = (0..n).map(|_| r.f64()).collect::<Result<_, _>>()?;
        let n = r.len_u64(4)?;
        let epoch_lrs = r.f32s(n)?;
        let params = blob(&mut r)?;
        let opt = blob(&mut r)?;
        r.finish()?;
        Ok(TrainCheckpoint {
            epoch,
            next_mb,
            order,
            rng: RngState { s, gauss_spare },
            steps,
            epoch_loss,
            batches,
            nonfinite_batches,
            rollbacks,
            ckpt_save_failures,
            best_val,
            epoch_losses,
            val_emd,
            epoch_lrs,
            params,
            opt,
        })
    }

    /// Atomically persists the checkpoint; on any failure — real or
    /// injected — the previous file at `path` is untouched.
    pub fn save(&self, path: &Path) -> Result<(), std::io::Error> {
        let _span = stod_obs::span!("ckpt/save");
        let bytes = self.to_bytes();
        if stod_obs::armed() {
            stod_obs::count("ckpt/saves", 1);
            stod_obs::count("ckpt/save_bytes", bytes.len() as u64);
        }
        stod_faultline::io::atomic_write(path, &bytes)
    }

    /// Loads and verifies a checkpoint file.
    pub fn load(path: &Path) -> Result<TrainCheckpoint, StoreError> {
        let _span = stod_obs::span!("ckpt/load");
        let bytes = std::fs::read(path).map_err(StoreError::Io)?;
        stod_obs::count("ckpt/loads", 1);
        TrainCheckpoint::from_bytes(&bytes)
    }
}

/// Reads a `u64`-length-prefixed byte blob.
fn blob(r: &mut Reader<'_>) -> Result<Vec<u8>, StoreError> {
    let n = r.len_u64(1)?;
    Ok(r.take(n)?.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainCheckpoint {
        TrainCheckpoint {
            epoch: 3,
            next_mb: 2,
            order: vec![
                Window {
                    t_end: 7,
                    s: 3,
                    h: 2,
                },
                Window {
                    t_end: 9,
                    s: 3,
                    h: 2,
                },
            ],
            rng: RngState {
                s: [1, 2, 3, u64::MAX],
                gauss_spare: Some(-0.25),
            },
            steps: 41,
            epoch_loss: 1.5e-3,
            batches: 2,
            nonfinite_batches: 1,
            rollbacks: 2,
            ckpt_save_failures: 0,
            best_val: Some((2, 0.125)),
            epoch_losses: vec![0.5, 0.25, 0.125],
            val_emd: vec![0.3, 0.2, 0.15],
            epoch_lrs: vec![1e-3, 1e-3, 8e-4, 8e-4],
            params: vec![1, 2, 3, 4, 5],
            opt: vec![9, 8, 7],
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let ck = sample();
        let back = TrainCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn empty_order_and_none_fields_roundtrip() {
        let ck = TrainCheckpoint {
            order: Vec::new(),
            best_val: None,
            rng: RngState {
                s: [5, 6, 7, 8],
                gauss_spare: None,
            },
            ..sample()
        };
        assert_eq!(TrainCheckpoint::from_bytes(&ck.to_bytes()).unwrap(), ck);
    }

    #[test]
    fn every_bit_flip_is_caught() {
        let bytes = sample().to_bytes();
        for pos in 8..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x02;
            match TrainCheckpoint::from_bytes(&bad) {
                Err(StoreError::Checksum { .. }) => {}
                other => panic!("flip at {pos}: expected checksum error, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_and_garbage_rejected() {
        let bytes = sample().to_bytes();
        for cut in [0, 4, 11, bytes.len() / 2, bytes.len() - 1] {
            assert!(TrainCheckpoint::from_bytes(&bytes[..cut]).is_err());
        }
        assert!(matches!(
            TrainCheckpoint::from_bytes(b"STPW\x02\x00\x00\x00\x00\x00\x00\x00"),
            Err(StoreError::Malformed(_))
        ));
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(TrainCheckpoint::from_bytes(&padded).is_err());
    }

    /// This test's own scratch directory, removed on drop unless the
    /// thread is panicking, so a failed test keeps its files.
    struct TmpDir(std::path::PathBuf);

    impl TmpDir {
        fn new(test: &str) -> TmpDir {
            let dir = std::env::temp_dir().join(format!("stod_ckpt_{}_{test}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TmpDir(dir)
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            if !std::thread::panicking() {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    #[test]
    fn save_load_roundtrip_and_atomicity() {
        use stod_faultline::{install, FaultPlan, FaultSite};
        let dir = TmpDir::new("save_load_roundtrip");
        let path = dir.0.join("train.stck");
        let ck = sample();
        ck.save(&path).unwrap();
        assert_eq!(TrainCheckpoint::load(&path).unwrap(), ck);

        let newer = TrainCheckpoint {
            steps: 99,
            ..sample()
        };
        {
            let _g = install(FaultPlan::new(8).with(FaultSite::SaveDiskFull, 1.0, 0));
            assert!(newer.save(&path).is_err());
        }
        assert_eq!(
            TrainCheckpoint::load(&path).unwrap(),
            ck,
            "failed save must leave the previous checkpoint loadable"
        );
        newer.save(&path).unwrap();
        assert_eq!(TrainCheckpoint::load(&path).unwrap().steps, 99);
        std::fs::remove_file(&path).unwrap();
    }
}
