//! One bytes-bounded cache of shared values, used at both key tiers: the
//! process-wide hot-hint cache ([`crate::HintCache`], materialized
//! keyswitch hints keyed by [`crate::HintId`]) and each server tenant's
//! cache of parsed compact key bundles (keyed by blob digest).
//!
//! A lookup returns an `Arc<V>`. A miss runs the caller's loader *outside*
//! the lock, so concurrent loads of different keys overlap; two threads
//! loading the same key race benignly and the copy already resident wins,
//! so every caller shares one allocation. A failed load caches nothing and
//! counts no miss — the next attempt loads again.
//!
//! Eviction has one recency mechanism — every access stamps a monotone
//! tick — and two policies on top of it:
//!
//! - **LRU baseline**: the victim is the least-recently-stamped entry.
//! - **Belady oracle** ([`BoundedCache::plan`]): when the caller knows its
//!   future access sequence (a BSGS transform's rotation schedule), eviction
//!   follows the MIN rule the `cl-core` residency machinery uses for operand
//!   scheduling — evict first what the schedule proves dead (no next use,
//!   oldest first), otherwise what is reused farthest in the future.
//!
//! The budget always admits at least one entry: a single value larger than
//! the whole budget must still be usable. Evicting only drops the cache's
//! reference; callers holding the `Arc` keep using it.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};

/// Bytes a cached value keeps resident, charged against the budget.
pub trait CacheWeight {
    /// Resident payload bytes of this value.
    fn cache_bytes(&self) -> usize;
}

/// Counters describing cache behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a resident value.
    pub hits: u64,
    /// Lookups that had to load (successfully) because nothing was
    /// resident.
    pub misses: u64,
    /// Values dropped to fit the byte budget.
    pub evictions: u64,
    /// Bytes of value payload currently resident (a gauge, not a counter).
    pub bytes_resident: usize,
}

struct Entry<V> {
    value: Arc<V>,
    bytes: usize,
    last_used: u64,
}

struct Plan<K> {
    /// Future accesses in schedule order.
    schedule: Vec<K>,
    /// Next schedule position not yet consumed.
    cursor: usize,
}

struct Inner<K, V> {
    entries: HashMap<K, Entry<V>>,
    tick: u64,
    stats: CacheStats,
    plan: Option<Plan<K>>,
}

impl<K: Copy + Eq + Hash, V> Inner<K, V> {
    /// Stamps `key` as most recent and consumes the plan head when the
    /// access matches it, so next-use distances stay anchored to the
    /// caller's position in its schedule.
    fn touch(&mut self, key: K) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.entries.get_mut(&key) {
            e.last_used = tick;
        }
        if let Some(plan) = &mut self.plan {
            while plan.schedule.get(plan.cursor) == Some(&key) {
                plan.cursor += 1;
            }
        }
    }

    /// Inserts a freshly loaded value unless another loader got there
    /// first, in which case the resident copy wins. `touch` marks the
    /// insert as an access (a lookup) rather than a warm-up.
    fn insert(&mut self, key: K, value: V, bytes: usize, capacity: usize, touch: bool) -> Arc<V> {
        if let Some(e) = self.entries.get(&key) {
            let resident = Arc::clone(&e.value);
            if touch {
                self.touch(key);
            }
            return resident;
        }
        self.tick += 1;
        let value = Arc::new(value);
        let entry = Entry {
            value: Arc::clone(&value),
            bytes,
            last_used: self.tick,
        };
        self.entries.insert(key, entry);
        self.stats.bytes_resident += bytes;
        if touch {
            self.touch(key);
        }
        self.evict_to_fit(capacity, key);
        value
    }

    /// Evicts until the budget holds, never evicting `keep` (the entry the
    /// current caller is about to use) and always leaving at least one
    /// entry.
    fn evict_to_fit(&mut self, capacity: usize, keep: K) {
        while self.stats.bytes_resident > capacity && self.entries.len() > 1 {
            let Some(victim) = self.pick_victim(keep) else {
                break;
            };
            if let Some(e) = self.entries.remove(&victim) {
                self.stats.bytes_resident -= e.bytes;
                self.stats.evictions += 1;
            }
        }
    }

    fn pick_victim(&self, keep: K) -> Option<K> {
        let candidates = self.entries.iter().filter(|(&k, _)| k != keep);
        match &self.plan {
            // Dead entries (no next use in the remaining schedule) rank
            // ahead of every planned one, oldest first; planned entries
            // rank by how far away their next use is. Ticks and schedule
            // positions are unique, so the maximum is too.
            Some(plan) => {
                let rest = &plan.schedule[plan.cursor.min(plan.schedule.len())..];
                candidates
                    .max_by_key(|(&k, e)| match rest.iter().position(|&s| s == k) {
                        None => (1u8, u64::MAX - e.last_used),
                        Some(pos) => (0, pos as u64),
                    })
                    .map(|(&k, _)| k)
            }
            None => candidates.min_by_key(|(_, e)| e.last_used).map(|(&k, _)| k),
        }
    }
}

/// A bytes-bounded, thread-safe cache mapping `K` to shared `Arc<V>`
/// values (see the module docs for the load, race and eviction rules).
pub struct BoundedCache<K, V> {
    capacity_bytes: usize,
    inner: Mutex<Inner<K, V>>,
}

impl<K, V> std::fmt::Debug for BoundedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<K, V> BoundedCache<K, V> {
    /// A cache bounded to `capacity_bytes` of value payload (a budget of 0
    /// still holds one entry at a time).
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            capacity_bytes,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
                plan: None,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner
            .lock()
            .expect("cache poisoned: a holder panicked mid-update")
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears the Belady plan, returning to pure LRU.
    pub fn clear_plan(&self) {
        self.lock().plan = None;
    }

    /// Drops every resident entry and the plan (outstanding `Arc`s keep
    /// their values).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.entries.clear();
        inner.stats.bytes_resident = 0;
        inner.plan = None;
    }
}

impl<K: Copy + Eq + Hash, V: CacheWeight> BoundedCache<K, V> {
    /// Returns the value for `key`, running `load` on a miss.
    ///
    /// # Errors
    ///
    /// Whatever `load` returns; a failed load is neither cached nor
    /// counted as a miss.
    pub fn get_or_load<E>(&self, key: K, load: impl FnOnce() -> Result<V, E>) -> Result<Arc<V>, E> {
        {
            let mut inner = self.lock();
            if let Some(e) = inner.entries.get(&key) {
                let value = Arc::clone(&e.value);
                inner.stats.hits += 1;
                inner.touch(key);
                return Ok(value);
            }
        }
        let value = load()?;
        let bytes = value.cache_bytes();
        let mut inner = self.lock();
        inner.stats.misses += 1;
        Ok(inner.insert(key, value, bytes, self.capacity_bytes, true))
    }

    /// Loads `key` into the cache if absent, without counting a hit or
    /// miss and without consuming the plan — used to warm the values an
    /// upcoming step needs while earlier work is still executing.
    ///
    /// # Errors
    ///
    /// Whatever `load` returns; nothing is cached then.
    pub fn prefetch<E>(&self, key: K, load: impl FnOnce() -> Result<V, E>) -> Result<(), E> {
        if self.contains(&key) {
            return Ok(());
        }
        let value = load()?;
        let bytes = value.cache_bytes();
        self.lock()
            .insert(key, value, bytes, self.capacity_bytes, false);
        Ok(())
    }

    /// Installs the future access sequence as the Belady eviction oracle,
    /// replacing any previous plan. Accesses matching the schedule head
    /// advance it.
    pub fn plan(&self, schedule: Vec<K>) {
        self.lock().plan = Some(Plan {
            schedule,
            cursor: 0,
        });
    }

    /// Whether `key` is currently resident.
    pub fn contains(&self, key: &K) -> bool {
        self.lock().entries.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A cached value that logs its key when the last `Arc` drops, so the
    /// order of the log is the cache's eviction order.
    struct Logged {
        key: u8,
        bytes: usize,
        log: Arc<Mutex<Vec<u8>>>,
    }

    impl CacheWeight for Logged {
        fn cache_bytes(&self) -> usize {
            self.bytes
        }
    }

    impl Drop for Logged {
        fn drop(&mut self) {
            self.log.lock().expect("log").push(self.key);
        }
    }

    /// Reference model: a recency list (oldest first) and a plan cursor,
    /// written directly from the policy statement rather than the core's
    /// tick-stamp mechanism.
    #[derive(Default)]
    struct Model {
        order: Vec<(u8, usize)>,
        plan: Option<(Vec<u8>, usize)>,
        stats: CacheStats,
        evicted: Vec<u8>,
    }

    impl Model {
        fn consume_plan(&mut self, key: u8) {
            if let Some((s, cur)) = &mut self.plan {
                while *cur < s.len() && s[*cur] == key {
                    *cur += 1;
                }
            }
        }

        fn access(&mut self, key: u8, bytes: usize, fails: bool, cap: usize) {
            if let Some(i) = self.order.iter().position(|&(k, _)| k == key) {
                let e = self.order.remove(i);
                self.order.push(e);
                self.stats.hits += 1;
                self.consume_plan(key);
            } else if !fails {
                self.stats.misses += 1;
                self.order.push((key, bytes));
                self.stats.bytes_resident += bytes;
                self.consume_plan(key);
                self.evict(key, cap);
            }
        }

        fn prefetch(&mut self, key: u8, bytes: usize, fails: bool, cap: usize) {
            if fails || self.order.iter().any(|&(k, _)| k == key) {
                return;
            }
            self.order.push((key, bytes));
            self.stats.bytes_resident += bytes;
            self.evict(key, cap);
        }

        fn evict(&mut self, keep: u8, cap: usize) {
            while self.stats.bytes_resident > cap && self.order.len() > 1 {
                let next_use = |k: u8| {
                    let (schedule, cursor) = self.plan.as_ref()?;
                    schedule[*cursor..].iter().position(|&x| x == k)
                };
                // The oldest entry without a next use (with no plan, every
                // entry), else the one whose next use is farthest away.
                let candidates = (0..self.order.len()).filter(|&i| self.order[i].0 != keep);
                let victim = candidates
                    .clone()
                    .find(|&i| next_use(self.order[i].0).is_none())
                    .or_else(|| candidates.max_by_key(|&i| next_use(self.order[i].0)));
                let (k, b) = self.order.remove(victim.expect("a second entry exists"));
                self.stats.bytes_resident -= b;
                self.stats.evictions += 1;
                self.evicted.push(k);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn core_matches_reference_model(
            cap in 0usize..40,
            planned in any::<bool>(),
            // (key, bytes, kind): kind 0 = prefetch, 1 = failed load, else
            // a lookup.
            trace in collection::vec((0u8..8, 1usize..16, 0u8..6), 1..60),
        ) {
            // Every key keeps one size for the whole trace, as a content-
            // addressed value does.
            let size = |k: u8| trace.iter().find(|t| t.0 == k).map_or(1, |t| t.1);
            let log = Arc::new(Mutex::new(Vec::new()));
            let cache: BoundedCache<u8, Logged> = BoundedCache::new(cap);
            let mut model = Model::default();
            if planned {
                let schedule: Vec<u8> =
                    trace.iter().filter(|t| t.2 > 1).map(|t| t.0).collect();
                cache.plan(schedule.clone());
                model.plan = Some((schedule, 0));
            }
            for &(key, _, kind) in &trace {
                let bytes = size(key);
                let load = || -> Result<Logged, ()> {
                    if kind == 1 {
                        Err(())
                    } else {
                        Ok(Logged { key, bytes, log: Arc::clone(&log) })
                    }
                };
                if kind == 0 {
                    cache.prefetch(key, load).expect("prefetch loads succeed");
                    model.prefetch(key, bytes, false, cap);
                } else {
                    let got = cache.get_or_load(key, load);
                    prop_assert_eq!(got.is_ok(), kind != 1 || cache.contains(&key));
                    model.access(key, bytes, kind == 1, cap);
                }
                prop_assert_eq!(cache.stats(), model.stats);
                prop_assert_eq!(&*log.lock().expect("log"), &model.evicted);
            }
        }
    }
}
