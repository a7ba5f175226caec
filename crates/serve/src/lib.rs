//! # stod-serve
//!
//! Online forecast serving for the trained BF/AF models — the layer that
//! turns the offline reproduction into the live component the paper's
//! `od-pred` system is framed as: forecasts for the next intervals must be
//! ready before those intervals begin.
//!
//! Four pieces compose a serving stack:
//!
//! * [`registry::Registry`] — versioned checkpoint registry. Loads
//!   `ParamStore` checkpoints, validates every parameter name and shape
//!   against the configured architecture, and atomically hot-swaps the
//!   active version without disturbing in-flight requests.
//! * [`ingest::FeatureStore`] — sliding-window feature store. Bins
//!   streaming [`stod_traffic::Trip`]s into per-interval sparse OD tensors
//!   and evicts intervals older than the lookback.
//! * [`broker::Broker`] — worker-pool request broker. Micro-batches
//!   concurrent requests sharing a `(t_end, horizon, version)` key into
//!   one model invocation, caches the computed full tensor, enforces
//!   per-request deadlines, and degrades to the NH historical-average
//!   baseline instead of erroring.
//! * [`stats::ServeStats`] — counters and latency percentiles, exported
//!   as a JSON-serializable snapshot.
//!
//! ```no_run
//! use std::sync::Arc;
//! use std::time::Duration;
//! use stod_serve::{
//!     Broker, BrokerConfig, FeatureStore, ForecastRequest, ModelConfig, ModelKind,
//!     Registry, ServeStats,
//! };
//!
//! # fn demo(
//! #     config: ModelConfig,
//! #     features: Arc<FeatureStore>,
//! #     fallback: stod_baselines::NaiveHistograms,
//! # ) {
//! let stats = Arc::new(ServeStats::new());
//! let registry = Arc::new(Registry::new(config, Arc::clone(&stats)));
//! let v = registry.register_file("bf.stpw".as_ref()).unwrap();
//! registry.promote(v).unwrap();
//! let broker = Broker::new(registry, features, fallback, stats, BrokerConfig::default());
//! let fc = broker.forecast(ForecastRequest {
//!     origin: 3,
//!     dest: 17,
//!     t_end: 95,
//!     horizon: 3,
//!     step: 0,
//!     deadline: Duration::from_millis(250),
//! });
//! println!("histogram {:?} from {:?}", fc.histogram, fc.source);
//! # }
//! ```

pub mod broker;
pub mod ingest;
pub mod registry;
pub mod stats;
pub mod wal;

pub use broker::{
    Broker, BrokerConfig, ComputedForecast, FallbackReason, ForecastRequest, ServedForecast, Source,
};
pub use ingest::{interval_for_departure, FeatureStore, IngestError, IngestSnapshot};
pub use registry::{ModelConfig, ModelKind, Registry, RegistryError, ScrubReport, ServedModel};
pub use stats::{LatencyHistogram, LedgerObsPaths, ServeStats, StatsSnapshot};
pub use wal::{FsyncPolicy, TripWal, WalConfig, WalRecord, WalReplay, WalStats};

/// The serving stack is shared across request threads; keep the central
/// types `Send + Sync` (compile-time check).
fn _assert_thread_safe() {
    fn check<T: Send + Sync>() {}
    check::<Registry>();
    check::<FeatureStore>();
    check::<Broker>();
    check::<ServeStats>();
    check::<TripWal>();
}
