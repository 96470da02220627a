//! Bounded hot cache of materialized keyswitch hints — the software
//! analogue of CraterLake's on-chip hint storage fed by the KSHGen unit.
//!
//! Compact keys ([`CompactKeySwitchKey`]) keep only the seed and the
//! non-random `k0` halves resident; applying one requires the full
//! materialized [`KeySwitchKey`]. [`HintCache`] is the crate's one
//! [`BoundedCache`] keyed by [`HintId`]: a hit returns the shared `Arc`, a
//! miss expands through the seeded generator and inserts the result,
//! evicting colder hints by LRU or — when the caller installs its rotation
//! schedule with [`BoundedCache::plan`] — by the Belady rule.
//!
//! Evicting an entry only drops the cache's reference: callers holding the
//! `Arc` keep computing with it, and a later re-expansion regenerates a
//! bit-identical key (the integrity digest proves it), so eviction can
//! never change results — only regen cost, which `cl-trace` attributes via
//! the `hint_regen` counter.

use std::sync::{Arc, OnceLock};

use crate::cache::{BoundedCache, CacheStats, CacheWeight};
use crate::error::FheResult;
use crate::keys::{CompactKeySwitchKey, KeySwitchKey};
use crate::CkksContext;

/// Identity of a cached hint: the parameter fingerprint (two tenants with
/// different parameter sets never share an entry even on a digest
/// collision) plus the key's integrity digest.
pub type HintId = (u64, u64);

/// The process-wide hot-hint cache: materialized keyswitch hints keyed by
/// [`HintId`], shareable across tenants (tenants with identical keys
/// deduplicate, tenants with different parameters never collide).
pub type HintCache = BoundedCache<HintId, KeySwitchKey>;

/// Hint-cache counters (the core's [`CacheStats`]).
pub type HintCacheStats = CacheStats;

/// Default hot-hint budget when `CL_HINT_CACHE_BYTES` is unset: 64 MiB,
/// comfortably above one bootstrap-capable working set at bench shapes.
pub const DEFAULT_HINT_CACHE_BYTES: usize = 64 << 20;

impl CacheWeight for KeySwitchKey {
    fn cache_bytes(&self) -> usize {
        self.resident_bytes()
    }
}

impl HintCache {
    /// The process-wide shared cache, sized once from `CL_HINT_CACHE_BYTES`
    /// (bytes; defaults to [`DEFAULT_HINT_CACHE_BYTES`]).
    pub fn global() -> &'static HintCache {
        static GLOBAL: OnceLock<HintCache> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cap = std::env::var("CL_HINT_CACHE_BYTES")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or(DEFAULT_HINT_CACHE_BYTES);
            HintCache::new(cap)
        })
    }

    /// The cache identity of a compact key under `ctx` — the key every
    /// lookup, prefetch and [`BoundedCache::plan`] schedule uses.
    pub fn hint_id(ctx: &CkksContext, compact: &CompactKeySwitchKey) -> HintId {
        (ctx.params_fingerprint(), compact.integrity_digest())
    }

    /// Returns the materialized hint for `compact`, expanding it through
    /// the seeded generator on a miss.
    ///
    /// # Errors
    ///
    /// [`crate::FheError::CorruptKey`] when expansion fails the integrity
    /// digest ([`CompactKeySwitchKey::expand`]).
    pub fn get_or_expand(
        &self,
        ctx: &CkksContext,
        compact: &CompactKeySwitchKey,
    ) -> FheResult<Arc<KeySwitchKey>> {
        self.get_or_load(Self::hint_id(ctx, compact), || compact.expand(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CkksParams, KeySwitchKind};
    use rand::SeedableRng;

    fn ctx() -> CkksContext {
        let params = CkksParams::builder()
            .ring_degree(64)
            .levels(3)
            .special_limbs(3)
            .limb_bits(36)
            .scale_bits(30)
            .build()
            .unwrap();
        CkksContext::new(params).unwrap()
    }

    fn compact_keys(c: &CkksContext, n: usize) -> Vec<CompactKeySwitchKey> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let sk = c.keygen(&mut rng);
        (0..n)
            .map(|i| {
                c.rotation_keygen(&sk, i as i64 + 1, KeySwitchKind::Boosted { digits: 1 }, &mut rng)
                    .to_compact()
            })
            .collect()
    }

    #[test]
    fn hit_miss_and_bit_exact_reexpansion() {
        let c = ctx();
        let keys = compact_keys(&c, 1);
        let cache = HintCache::new(usize::MAX);
        let a = cache.get_or_expand(&c, &keys[0]).unwrap();
        let b = cache.get_or_expand(&c, &keys[0]).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must share the resident Arc");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.bytes_resident, a.resident_bytes());
        // Eviction then re-expansion reproduces the identical key.
        cache.clear();
        let c2 = cache.get_or_expand(&c, &keys[0]).unwrap();
        assert_eq!(c2.integrity_digest(), a.integrity_digest());
        assert!(c2.verify_integrity());
    }

    #[test]
    fn lru_evicts_coldest_within_budget() {
        let c = ctx();
        let keys = compact_keys(&c, 3);
        let one = keys[0].expand(&c).unwrap().resident_bytes();
        // Room for two materialized hints.
        let cache = HintCache::new(2 * one);
        let _a = cache.get_or_expand(&c, &keys[0]).unwrap();
        let _b = cache.get_or_expand(&c, &keys[1]).unwrap();
        // Touch key 0 so key 1 is coldest, then insert key 2.
        let _a2 = cache.get_or_expand(&c, &keys[0]).unwrap();
        let _c = cache.get_or_expand(&c, &keys[2]).unwrap();
        assert!(cache.contains(&HintCache::hint_id(&c, &keys[0])));
        assert!(
            !cache.contains(&HintCache::hint_id(&c, &keys[1])),
            "coldest entry must go"
        );
        assert!(cache.contains(&HintCache::hint_id(&c, &keys[2])));
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes_resident <= 2 * one);
    }

    #[test]
    fn belady_plan_evicts_dead_then_farthest() {
        let c = ctx();
        let keys = compact_keys(&c, 3);
        let one = keys[0].expand(&c).unwrap().resident_bytes();
        let cache = HintCache::new(2 * one);
        let id = |k: &CompactKeySwitchKey| HintCache::hint_id(&c, k);
        // Schedule: 0, 1, 2, 0 — after accessing 0 and 1, key 0 is reused
        // later but key 1 is dead, so inserting 2 must evict 1 even though
        // 0 is older by LRU.
        cache.plan(vec![id(&keys[0]), id(&keys[1]), id(&keys[2]), id(&keys[0])]);
        let _a = cache.get_or_expand(&c, &keys[0]).unwrap();
        let _b = cache.get_or_expand(&c, &keys[1]).unwrap();
        let _c2 = cache.get_or_expand(&c, &keys[2]).unwrap();
        assert!(
            cache.contains(&HintCache::hint_id(&c, &keys[0])),
            "scheduled reuse must stay resident"
        );
        assert!(
            !cache.contains(&HintCache::hint_id(&c, &keys[1])),
            "dead entry must go first"
        );
    }

    #[test]
    fn prefetch_warms_without_counting() {
        let c = ctx();
        let keys = compact_keys(&c, 1);
        let cache = HintCache::new(usize::MAX);
        cache
            .prefetch(HintCache::hint_id(&c, &keys[0]), || keys[0].expand(&c))
            .unwrap();
        assert!(cache.contains(&HintCache::hint_id(&c, &keys[0])));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
        let _k = cache.get_or_expand(&c, &keys[0]).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn single_oversized_entry_stays_usable() {
        let c = ctx();
        let keys = compact_keys(&c, 2);
        let cache = HintCache::new(1); // budget smaller than any hint
        let a = cache.get_or_expand(&c, &keys[0]).unwrap();
        assert!(a.verify_integrity());
        assert!(cache.contains(&HintCache::hint_id(&c, &keys[0])));
        // Inserting a second evicts down to one entry again.
        let b = cache.get_or_expand(&c, &keys[1]).unwrap();
        assert!(b.verify_integrity());
        assert!(cache.contains(&HintCache::hint_id(&c, &keys[1])));
        assert!(!cache.contains(&HintCache::hint_id(&c, &keys[0])));
    }
}
