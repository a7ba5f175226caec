//! The fleet-wide forecast result cache.
//!
//! One model invocation predicts the *entire* OD tensor for every horizon
//! step, so a single cached [`ComputedForecast`] answers any of the
//! `N² × horizon` pair requests against the same `(city, t_end, horizon)`
//! — the structural win the whole fleet tier is built around. Entries are
//! keyed by [`CacheKey`], whose `version` component makes staleness
//! *structural*: a hot-swapped checkpoint changes the active version, so
//! requests simply stop looking up the old entries (and
//! [`ForecastCache::invalidate_city_except`] reclaims their memory
//! eagerly).
//!
//! Memory is bounded two ways: an entry-count capacity with exact LRU
//! eviction (a `HashMap` for lookup plus a `BTreeMap` recency index keyed
//! by a monotonic touch tick, so eviction is `O(log n)`, not a scan), and
//! an `approx_bytes` gauge the snapshot exports so operators can see what
//! the entry cap means in bytes for their tensor sizes.
//!
//! The cache itself only stores and evicts; *attribution* (which tenant's
//! counters record a hit, eviction, or invalidation) is the router's job,
//! which is why mutating methods hand back the affected keys instead of
//! counting internally.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use stod_obs::sync::lock;
use stod_serve::ComputedForecast;

/// Cache key: one full-tensor forecast of one tenant at one checkpoint
/// version. Two requests with the same key are interchangeable bitwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Tenant (shard) id.
    pub city: usize,
    /// Last observed interval the forecast conditions on.
    pub t_end: usize,
    /// Number of future steps the invocation predicted.
    pub horizon: usize,
    /// Registry version that computed the forecast.
    pub version: u32,
}

struct Entry {
    value: Arc<ComputedForecast>,
    /// Touch tick of the entry's position in the recency index.
    tick: u64,
    bytes: usize,
}

#[derive(Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    /// Recency index: touch tick → key; the smallest tick is the LRU
    /// entry. Ticks are unique (one per touch), so this is a total order.
    recency: BTreeMap<u64, CacheKey>,
    tick: u64,
    bytes: usize,
}

/// A bounded, thread-safe LRU cache of full-tensor forecasts.
pub struct ForecastCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl ForecastCache {
    /// A cache holding at most `capacity` entries (≥ 1).
    pub fn new(capacity: usize) -> ForecastCache {
        assert!(capacity >= 1, "cache capacity must be ≥ 1");
        ForecastCache {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Entry-count capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries (never exceeds the capacity).
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint of the cached prediction tensors.
    pub fn approx_bytes(&self) -> usize {
        lock(&self.inner).bytes
    }

    /// Looks up a key, refreshing its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<ComputedForecast>> {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        let (old_tick, value) = match inner.map.get_mut(key) {
            None => return None,
            Some(entry) => {
                let old = entry.tick;
                entry.tick = tick;
                (old, Arc::clone(&entry.value))
            }
        };
        inner.recency.remove(&old_tick);
        inner.recency.insert(tick, *key);
        Some(value)
    }

    /// Inserts (or refreshes) an entry and enforces the capacity, evicting
    /// least-recently-used entries as needed. Returns the evicted keys so
    /// the caller can attribute each eviction to its tenant's counters.
    /// The just-inserted key is never among them (it is the most recent).
    pub fn insert(&self, key: CacheKey, value: Arc<ComputedForecast>) -> Vec<CacheKey> {
        let bytes = value.approx_bytes();
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.insert(key, Entry { value, tick, bytes }) {
            // Concurrent misses on one key can race to insert the same
            // (deterministically recomputed) forecast; keep the newer
            // entry and fix the books.
            inner.recency.remove(&old.tick);
            inner.bytes -= old.bytes;
        }
        inner.recency.insert(tick, key);
        inner.bytes += bytes;
        let mut evicted = Vec::new();
        while inner.map.len() > self.capacity {
            let (_, lru_key) = inner
                .recency
                .pop_first()
                .expect("recency index tracks every entry");
            let entry = inner
                .map
                .remove(&lru_key)
                .expect("map and recency index agree");
            inner.bytes -= entry.bytes;
            evicted.push(lru_key);
        }
        evicted
    }

    /// Drops every entry of `city` whose version is not `keep_version`
    /// (the hot-swap invalidation path), returning the dropped keys for
    /// attribution. Entries of other tenants are untouched.
    pub fn invalidate_city_except(&self, city: usize, keep_version: u32) -> Vec<CacheKey> {
        let mut inner = lock(&self.inner);
        let stale: Vec<CacheKey> = inner
            .map
            .keys()
            .filter(|k| k.city == city && k.version != keep_version)
            .copied()
            .collect();
        for key in &stale {
            let entry = inner.map.remove(key).expect("key just listed");
            inner.recency.remove(&entry.tick);
            inner.bytes -= entry.bytes;
        }
        stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stod_tensor::Tensor;

    fn forecast(version: u32) -> Arc<ComputedForecast> {
        Arc::new(ComputedForecast {
            version,
            predictions: vec![Tensor::zeros(&[1, 2, 2, 3])],
        })
    }

    fn key(city: usize, t_end: usize, version: u32) -> CacheKey {
        CacheKey {
            city,
            t_end,
            horizon: 2,
            version,
        }
    }

    #[test]
    fn get_returns_inserted_value_and_misses_other_keys() {
        let cache = ForecastCache::new(4);
        assert!(cache.is_empty());
        let evicted = cache.insert(key(0, 5, 1), forecast(1));
        assert!(evicted.is_empty());
        let hit = cache.get(&key(0, 5, 1)).expect("inserted key hits");
        assert_eq!(hit.version, 1);
        assert!(
            cache.get(&key(1, 5, 1)).is_none(),
            "city is part of the key"
        );
        assert!(
            cache.get(&key(0, 6, 1)).is_none(),
            "t_end is part of the key"
        );
        assert!(
            cache.get(&key(0, 5, 2)).is_none(),
            "version is part of the key"
        );
    }

    #[test]
    fn len_never_exceeds_capacity_and_eviction_is_lru() {
        let cache = ForecastCache::new(2);
        cache.insert(key(0, 0, 1), forecast(1));
        cache.insert(key(0, 1, 1), forecast(1));
        // Touch t_end=0 so t_end=1 becomes the LRU entry.
        cache.get(&key(0, 0, 1)).unwrap();
        let evicted = cache.insert(key(0, 2, 1), forecast(1));
        assert_eq!(evicted, vec![key(0, 1, 1)], "least-recently-used evicts");
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(0, 0, 1)).is_some());
        assert!(cache.get(&key(0, 2, 1)).is_some());
    }

    #[test]
    fn reinserting_a_key_does_not_grow_or_evict() {
        let cache = ForecastCache::new(2);
        cache.insert(key(0, 0, 1), forecast(1));
        let bytes = cache.approx_bytes();
        let evicted = cache.insert(key(0, 0, 1), forecast(1));
        assert!(evicted.is_empty());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.approx_bytes(), bytes, "bytes must not double-count");
    }

    #[test]
    fn invalidate_city_drops_only_that_citys_stale_versions() {
        let cache = ForecastCache::new(8);
        cache.insert(key(0, 0, 1), forecast(1));
        cache.insert(key(0, 1, 1), forecast(1));
        cache.insert(key(0, 2, 2), forecast(2));
        cache.insert(key(1, 0, 1), forecast(1));
        let mut dropped = cache.invalidate_city_except(0, 2);
        dropped.sort_by_key(|k| k.t_end);
        assert_eq!(dropped, vec![key(0, 0, 1), key(0, 1, 1)]);
        assert!(cache.get(&key(0, 2, 2)).is_some(), "current version stays");
        assert!(
            cache.get(&key(1, 0, 1)).is_some(),
            "other tenants untouched"
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn bytes_track_insertions_and_evictions() {
        let cache = ForecastCache::new(1);
        cache.insert(key(0, 0, 1), forecast(1));
        let one = cache.approx_bytes();
        assert!(one > 0);
        cache.insert(key(0, 1, 1), forecast(1));
        assert_eq!(cache.approx_bytes(), one, "evicted entry's bytes reclaimed");
        cache.invalidate_city_except(0, 99);
        assert_eq!(cache.approx_bytes(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_one_always_keeps_the_newest() {
        let cache = ForecastCache::new(1);
        for t in 0..10 {
            let evicted = cache.insert(key(0, t, 1), forecast(1));
            assert_eq!(evicted.len(), usize::from(t > 0));
            assert_eq!(cache.len(), 1);
            assert!(cache.get(&key(0, t, 1)).is_some());
        }
    }
}
