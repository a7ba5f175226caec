//! Byte-level pins for every on-disk format and JSON export the workspace
//! writes, and for the random stream that checkpoints capture.
//!
//! Round-trip tests keep passing when a format moves, because the writer
//! and the reader move together. These tests encode fixed inputs and
//! assert the exact length and CRC-32 of each encoding, so any change to
//! a single byte of `STPW` v2 (parameter stores), `STCK` v1 (training
//! checkpoints, including the embedded Adam-state fragment), `STWL` v1
//! (WAL segment headers and frames) or the JSON exports (serving stats,
//! fleet health, observability snapshots) fails here. Existing
//! checkpoints and logs keep loading only while these pins hold, and a
//! checkpoint's `RngState` resumes the same draws only while the `Rng64`
//! stream pin holds.

use od_forecast::core::TrainCheckpoint;
use od_forecast::faultline::crc::crc32;
use od_forecast::fleet::{BreakerSnapshot, BreakerState, FleetHealth, ShardHealth};
use od_forecast::nn::optim::Adam;
use od_forecast::nn::{ParamStore, Tape};
use od_forecast::obs::{
    CounterSnap, GaugeSnap, HistogramSnap, ObsSnapshot, SpanSnap, TraceEventSnap,
};
use od_forecast::serve::wal::{encode_record, segment_header};
use od_forecast::serve::{ServeStats, WalRecord, WalStats};
use od_forecast::tensor::rng::{Rng64, RngState};
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

#[test]
fn rng64_stream_at_seed_one_is_pinned() {
    let mut rng = Rng64::new(1);
    let raw: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
    assert_eq!(
        raw,
        [
            0xb3f2_af6d_0fc7_10c5,
            0x853b_5596_4736_4cea,
            0x92f8_9756_082a_4514
        ]
    );
    assert_eq!(rng.next_f64().to_bits(), 0x3fd9_0b87_1ef0_99a8);
    assert_eq!(rng.next_f32().to_bits(), 0x3f32_7a48);
    assert_eq!(rng.next_below(7), 6);
    assert_eq!(rng.next_gaussian().to_bits(), 0xbffb_0289_8a31_5caa);
    let state = rng.state();
    assert_eq!(
        state.s,
        [
            0xc1b9_fa3c_a23d_c21b,
            0x8a42_c151_fac9_af86,
            0x6be6_3309_9f53_f80b,
            0x2959_7071_5f99_2aba
        ]
    );
    assert_eq!(
        state.gauss_spare.map(f64::to_bits),
        Some(0x3ff8_fd04_1ec8_1360)
    );
}

#[test]
fn serve_stats_json_is_pinned() {
    let js = ServeStats::new().snapshot().to_json();
    assert_pinned("StatsSnapshot JSON", js.as_bytes(), 869, 0xbc61_38a1);
}

#[test]
fn fleet_health_json_is_pinned() {
    let health = FleetHealth {
        shards: vec![
            ShardHealth {
                city: 0,
                name: "nyc".into(),
                breaker: BreakerSnapshot {
                    state: BreakerState::Closed,
                    consecutive_failures: 2,
                    trips: 3,
                    probes: 4,
                    rejects: 5,
                },
                wal: Some(WalStats {
                    segments: 2,
                    tail_bytes: 4096,
                    appends: 120,
                    fsyncs: 7,
                    rotations: 1,
                    replayed: 33,
                    truncated_tails: 1,
                    retired_segments: 6,
                    dead: false,
                }),
                wal_dead: false,
                crashed: false,
                sealed_intervals: 12,
                active_version: Some(9),
            },
            ShardHealth {
                city: 1,
                name: "chengdu \"night\"\\\n\t\u{1}".into(),
                breaker: BreakerSnapshot {
                    state: BreakerState::HalfOpen,
                    consecutive_failures: 0,
                    trips: 1,
                    probes: 1,
                    rejects: 40,
                },
                wal: None,
                wal_dead: true,
                crashed: true,
                sealed_intervals: 0,
                active_version: None,
            },
        ],
    };
    let js = health.to_json();
    assert_pinned("FleetHealth JSON", js.as_bytes(), 589, 0xb483_105d);
}

#[test]
fn obs_snapshot_json_is_pinned() {
    let snap = ObsSnapshot {
        schema: 1,
        mode: "trace".into(),
        spans: vec![SpanSnap {
            path: "train/epoch/minibatch".into(),
            count: 3,
            total_ns: 9_000_000,
            min_ns: 2_500_000,
            max_ns: 3_500_000,
        }],
        counters: vec![CounterSnap {
            name: "kernel/matmul/calls".into(),
            value: 252,
        }],
        gauges: vec![GaugeSnap {
            name: "serve/queue_depth".into(),
            value: -3,
            min: -7,
            max: 11,
            updates: 19,
        }],
        histograms: vec![HistogramSnap {
            name: "serve/batch_size".into(),
            count: 4,
            total: 10,
            max: 4,
            p50: 2,
            p90: 4,
            p99: 4,
        }],
        dropped_trace_events: 2,
        trace: vec![TraceEventSnap {
            path: "serve/job".into(),
            thread: 1,
            start_ns: 123_456,
            dur_ns: 789,
        }],
    };
    let js = snap.to_json();
    assert_pinned("ObsSnapshot JSON", js.as_bytes(), 465, 0x9dda_39e1);
}
