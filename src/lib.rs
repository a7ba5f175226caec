//! # od-forecast
//!
//! Umbrella crate for the Rust reproduction of *"Stochastic
//! Origin-Destination Matrix Forecasting Using Dual-Stage Graph
//! Convolutional, Recurrent Neural Networks"* (Hu et al., ICDE 2020).
//!
//! The implementation is split into focused crates, all re-exported here:
//!
//! * [`tensor`] — dense tensor kernels (shapes, broadcasting, matmul,
//!   reductions, small linear algebra).
//! * [`nn`] — reverse-mode automatic differentiation plus the neural layers
//!   the paper needs (fully-connected, GRU, Chebyshev graph convolution,
//!   graph-convolutional GRU) and optimizers.
//! * [`graph`] — region proximity graphs, Laplacians, Chebyshev bases,
//!   Graclus-style coarsening for geometric pooling.
//! * [`traffic`] — the data substrate: synthetic city models, trip
//!   simulation, histogram construction and sparse OD speed tensors.
//! * [`metrics`] — KL / JS divergences and the earth mover's distance used
//!   by the paper's evaluation, plus grouped aggregation helpers.
//! * [`baselines`] — NH, GP, VAR, FC/RNN and MR reference methods.
//! * [`core`] — the paper's contribution: the Basic Framework (BF) and the
//!   Advanced Framework (AF) with training and evaluation harnesses.
//! * [`serve`] — online serving: versioned checkpoint registry with
//!   hot-swap, streaming trip ingest, micro-batching request broker with
//!   deadline-aware NH fallback, and serving stats.
//! * [`faultline`] — seeded deterministic fault injection (`STOD_FAULTS`),
//!   CRC-32 checksums, and crash-consistent atomic file persistence — the
//!   robustness substrate the chaos test suite drives.
//! * [`fleet`] — city-scale serving: per-city tenant shards over
//!   [`serve`], a fleet-wide forecast result cache with LRU eviction and
//!   hot-swap invalidation, admission-control shedding, per-shard circuit
//!   breakers, and write-ahead-logged crash recovery.
//! * [`obs`] — zero-dependency observability: scoped spans, counters,
//!   gauges and log2 histograms behind a disarmed-by-default probe
//!   (`STOD_OBS`), read back as a snapshot (span tree, counters,
//!   histograms) by the repository benchmark's traced runs and by the
//!   tier-1 `tests/obs_gate.rs`.
//! * [`adapt`] — continual adaptation: snapshot the live ingest window,
//!   warm-start fine-tune from the serving incumbent, shadow-evaluate
//!   against it and an online Kalman corrector, and auto-promote via
//!   registry hot-swap with durable crash recovery and rollback on
//!   regression.
//!
//! See the `examples/` directory for end-to-end usage, `DESIGN.md` for the
//! system inventory and `EXPERIMENTS.md` for the reproduction results.

pub use stod_adapt as adapt;
pub use stod_baselines as baselines;
pub use stod_core as core;
pub use stod_faultline as faultline;
pub use stod_fleet as fleet;
pub use stod_graph as graph;
pub use stod_metrics as metrics;
pub use stod_nn as nn;
pub use stod_obs as obs;
pub use stod_serve as serve;
pub use stod_tensor as tensor;
pub use stod_traffic as traffic;

/// Crate version of the umbrella package.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
