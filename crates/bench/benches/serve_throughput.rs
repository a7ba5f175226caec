//! Serving throughput: requests/sec through the `stod-serve` broker,
//! batched vs. unbatched.
//!
//! * **batched** — concurrent clients ask about different OD pairs of the
//!   *same* forecast key `(t_end, horizon)`, so the broker collapses them
//!   into one model invocation per key and serves the rest from the
//!   in-flight computation or the interval cache.
//! * **unbatched** — every request targets a *distinct* key, so each one
//!   pays a full model forward pass; this is what a serving layer without
//!   micro-batching would do for a burst of per-pair queries.
//!
//! The ratio between the two is the direct win of micro-batching. A plain
//! wall-clock harness (not criterion) because the quantity of interest is
//! aggregate requests/sec under concurrency, not per-call latency.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stod_baselines::NaiveHistograms;
use stod_core::BfConfig;
use stod_serve::{
    Broker, BrokerConfig, FeatureStore, ForecastRequest, ModelConfig, ModelKind, Registry,
    ServeStats,
};
use stod_traffic::{CityModel, OdDataset, SimConfig};

const N: usize = 8;
const LOOKBACK: usize = 4;
const HORIZON: usize = 2;
const CLIENTS: &[usize] = &[1, 4, 8];
const REQUESTS_PER_CLIENT: usize = 200;

fn build_stack(ds: &OdDataset) -> Broker {
    let stats = Arc::new(ServeStats::new());
    let config = ModelConfig {
        kind: ModelKind::Bf(BfConfig {
            encode_dim: 16,
            gru_hidden: 16,
            ..BfConfig::default()
        }),
        centroids: ds.city.centroids(),
        num_buckets: ds.spec.num_buckets,
    };
    let registry = Arc::new(Registry::new(config.clone(), Arc::clone(&stats)));
    let model = config.build(1);
    let v = registry.register_store(model.params().clone()).unwrap();
    registry.promote(v).unwrap();
    let features = Arc::new(FeatureStore::new(N, ds.spec, ds.num_intervals()));
    for (t, tensor) in ds.tensors.iter().enumerate() {
        features.insert_tensor(t, tensor.clone());
    }
    let fallback = NaiveHistograms::fit(ds, ds.num_intervals());
    Broker::new(
        registry,
        features,
        fallback,
        stats,
        BrokerConfig {
            workers: 2,
            lookback: LOOKBACK,
            cache_capacity: 64,
            ..BrokerConfig::default()
        },
    )
}

/// Fires `clients × REQUESTS_PER_CLIENT` requests and returns
/// (requests/sec, model invocations); `key_of` yields the `t_end` for the
/// i-th request of client `c`.
fn measure(
    broker: &Broker,
    clients: usize,
    key_of: &(impl Fn(usize, usize) -> usize + Sync),
) -> (f64, u64) {
    let invocations_before = broker.stats().snapshot().model_invocations;
    let served = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let served = &served;
            scope.spawn(move || {
                for i in 0..REQUESTS_PER_CLIENT {
                    let fc = broker.forecast(ForecastRequest {
                        origin: (c + i) % N,
                        dest: (c + 2 * i + 1) % N,
                        t_end: key_of(c, i),
                        horizon: HORIZON,
                        step: i % HORIZON,
                        deadline: Duration::from_secs(30),
                    });
                    assert_eq!(fc.histogram.len(), 7);
                    served.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let total = served.load(Ordering::Relaxed);
    let invocations = broker.stats().snapshot().model_invocations - invocations_before;
    (total as f64 / elapsed, invocations)
}

fn main() {
    let sim = SimConfig {
        num_days: 2,
        intervals_per_day: 48,
        trips_per_interval: 150.0,
        ..SimConfig::small(31)
    };
    let ds = OdDataset::generate(CityModel::small(N), &sim);
    let max_t = ds.num_intervals() - 1;
    println!(
        "serve_throughput: N={N} regions, lookback={LOOKBACK}, horizon={HORIZON}, \
         {REQUESTS_PER_CLIENT} requests/client\n"
    );
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>14}",
        "clients", "batched r/s", "unbat. r/s", "batched invoc", "unbat. invoc"
    );
    for &clients in CLIENTS {
        // Batched: every request in a burst shares one key; bursts walk
        // through the intervals so each burst needs one fresh invocation.
        let broker = build_stack(&ds);
        let (batched_rps, batched_inv) = measure(&broker, clients, &|_c, i| {
            LOOKBACK + (i / 8) % (max_t - LOOKBACK)
        });
        // Unbatched: consecutive requests use distinct keys (and the burst
        // pattern never revisits one within the cache window), so every
        // request is its own forward pass.
        let broker = build_stack(&ds);
        let (unbatched_rps, unbatched_inv) = measure(&broker, clients, &|c, i| {
            LOOKBACK + (c * REQUESTS_PER_CLIENT + i) % (max_t - LOOKBACK)
        });
        println!(
            "{clients:<10} {batched_rps:>12.0} {unbatched_rps:>12.0} {batched_inv:>14} {unbatched_inv:>14}"
        );
    }
    println!("\nbatched collapses concurrent same-key requests into one model invocation;");
    println!("unbatched pays one forward pass per request.");
}
