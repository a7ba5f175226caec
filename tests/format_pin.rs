//! Byte-level pins for every on-disk format the workspace writes.
//!
//! Round-trip tests keep passing when a format moves, because the writer
//! and the reader move together. These tests encode fixed inputs and
//! assert the exact length and CRC-32 of each encoding, so any change to
//! a single byte of `STPW` v2 (parameter stores), `STCK` v1 (training
//! checkpoints, including the embedded Adam-state fragment) or `STWL` v1
//! (WAL segment headers and frames) fails here. Existing checkpoints and
//! logs keep loading only while these pins hold.

use od_forecast::core::TrainCheckpoint;
use od_forecast::faultline::crc::crc32;
use od_forecast::nn::optim::Adam;
use od_forecast::nn::{ParamStore, Tape};
use od_forecast::serve::wal::{encode_record, segment_header};
use od_forecast::serve::WalRecord;
use od_forecast::tensor::rng::RngState;
use od_forecast::tensor::Tensor;
use od_forecast::traffic::{Trip, Window};

/// Asserts an encoding's length and the CRC-32 of `covered`, the part
/// of it the pin checks, reporting both on mismatch.
fn check(what: &str, bytes: &[u8], covered: &[u8], len: usize, crc: u32) {
    let found = (bytes.len(), crc32(covered));
    assert_eq!(
        found,
        (len, crc),
        "{what}: encoding moved (got {} bytes, crc {:#010x})",
        found.0,
        found.1
    );
}

/// Pins an encoding by its length and the CRC-32 of all its bytes.
fn assert_pinned(what: &str, bytes: &[u8], len: usize, crc: u32) {
    check(what, bytes, bytes, len, crc);
}

/// Pins an encoding that ends in a CRC-32 footer over everything before
/// it. The CRC of such a whole buffer is the constant CRC-32 residue, so
/// the pin is the CRC of the bytes before the footer, and the footer must
/// hold exactly that value.
fn assert_sealed_pinned(what: &str, bytes: &[u8], len: usize, crc: u32) {
    let (body, footer) = bytes.split_at(bytes.len().saturating_sub(4));
    check(what, bytes, body, len, crc);
    assert_eq!(
        footer,
        crc.to_le_bytes(),
        "{what}: footer is not the body's CRC"
    );
}

/// A two-tensor store with values that exercise sign, zero and
/// non-trivial mantissas.
fn two_tensor_store() -> ParamStore {
    let mut store = ParamStore::new();
    store.register(
        "enc.weight",
        Tensor::from_vec(&[2, 3], vec![1.0, -2.5, 0.0, 3.25, -0.125, 1e-3]),
    );
    store.register("enc.bias", Tensor::from_vec(&[3], vec![0.5, -0.5, 7.0]));
    store
}

#[test]
fn param_store_v2_bytes_are_pinned() {
    assert_sealed_pinned("STPW v2", &two_tensor_store().to_bytes(), 110, 0xa71f_e468);
}

#[test]
fn train_checkpoint_v1_with_adam_state_bytes_are_pinned() {
    let mut store = two_tensor_store();
    let ids = store.ids();
    let mut adam = Adam::new(0.01).with_weight_decay(0.1);
    // Two steps with a constant gradient of one on the second tensor only,
    // so the fragment holds an empty moment slot before a filled one.
    for _ in 0..2 {
        let mut tape = Tape::new();
        let w = tape.param(&store, ids[1]);
        let loss = tape.sum_all(w);
        let grads = tape.backward(loss);
        adam.step(&mut store, &grads);
    }
    let opt = adam.state_to_bytes();
    assert_pinned("Adam state", &opt, 84, 0x8570_6d02);
    let ck = TrainCheckpoint {
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
        steps: 2,
        epoch_loss: 1.5e-3,
        batches: 2,
        nonfinite_batches: 1,
        rollbacks: 0,
        ckpt_save_failures: 0,
        best_val: Some((2, 0.125)),
        epoch_losses: vec![0.5, 0.25],
        val_emd: vec![0.3, 0.2],
        epoch_lrs: vec![1e-2, 1e-2, 9e-3],
        params: store.to_bytes().to_vec(),
        opt,
    };
    assert_sealed_pinned("STCK v1", &ck.to_bytes(), 460, 0x0238_ea8a);
}

#[test]
fn wal_v1_header_and_frames_are_pinned() {
    assert_pinned("STWL v1 header", &segment_header(7), 12, 0xca44_b530);
    let mut push = Vec::new();
    encode_record(
        &WalRecord::Push(Trip {
            origin: 3,
            dest: 11,
            interval: 4242,
            distance_km: 2.75,
            speed_ms: 8.5,
        }),
        &mut push,
    );
    assert_sealed_pinned("STWL push frame", &push, 41, 0xb8e8_aad5);
    let mut seal = Vec::new();
    encode_record(&WalRecord::Seal(4242), &mut seal);
    assert_sealed_pinned("STWL seal frame", &seal, 17, 0x635f_aa75);
}
