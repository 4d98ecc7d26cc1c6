//! LRU cache for wire-ready embedding payloads.
//!
//! Before this existed the server's cache simply stopped inserting at
//! capacity, so a long-lived server whose circuit population drifted past
//! `cache_cap` served every *new* circuit cold forever. This cache evicts
//! the least-recently-used entry instead: hot circuits stay resident,
//! cold ones age out, and a full cache keeps absorbing new work.
//!
//! Recency is a monotonic tick stamped on insert and on every hit;
//! eviction is an O(n) scan for the minimum tick. With caps in the
//! thousands and a scan that is pointer-chasing-free (flat `HashMap`
//! iteration), that is far cheaper than the GNN forward each
//! eviction amortizes, and it needs no intrusive list — the map stays
//! the single source of truth.
//!
//! The cache is also **generation-stamped** for checkpoint hot-reload:
//! [`LruCache::invalidate`] clears every entry and advances the stamp,
//! and [`LruCache::insert`] refuses payloads from any other generation.
//! That closes the reload race where a miss that started on the old
//! embedder finishes after the swap — its (stale) bytes can never land
//! in the new generation's cache.

use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug)]
pub(crate) struct LruCache {
    cap: usize,
    tick: u64,
    evictions: u64,
    /// Checkpoint generation the resident entries belong to.
    generation: u64,
    map: HashMap<u64, (u64, Arc<Vec<u8>>)>,
}

impl LruCache {
    pub fn new(cap: usize, generation: u64) -> LruCache {
        LruCache {
            cap,
            tick: 0,
            evictions: 0,
            generation,
            map: HashMap::with_capacity(cap.min(4096)),
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Total entries evicted since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The generation whose payloads are resident.
    #[cfg(test)]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Drops every entry and re-stamps the cache for `generation`.
    /// Invalidation is not an eviction (nothing aged out); the eviction
    /// counter is untouched.
    pub fn invalidate(&mut self, generation: u64) {
        self.map.clear();
        self.generation = generation;
    }

    /// Returns the cached payload and marks it most-recently-used.
    pub fn get(&mut self, hash: u64) -> Option<Arc<Vec<u8>>> {
        self.tick += 1;
        let tick = self.tick;
        let (stamp, bytes) = self.map.get_mut(&hash)?;
        *stamp = tick;
        Some(Arc::clone(bytes))
    }

    /// Inserts (or refreshes) `hash`, evicting the least-recently-used
    /// entry when at capacity. A zero-capacity cache never stores, and a
    /// payload computed under any other `generation` is refused (the
    /// miss that produced it straddled a hot-reload).
    pub fn insert(&mut self, hash: u64, bytes: Arc<Vec<u8>>, generation: u64) {
        if self.cap == 0 || generation != self.generation {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.cap && !self.map.contains_key(&hash) {
            if let Some(&victim) = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k)
            {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        self.map.insert(hash, (self.tick, bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GEN: u64 = 1;

    fn payload(v: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![v; 4])
    }

    #[test]
    fn evicts_least_recently_used_at_cap() {
        let mut c = LruCache::new(2, GEN);
        c.insert(1, payload(1), GEN);
        c.insert(2, payload(2), GEN);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(1).is_some());
        c.insert(3, payload(3), GEN);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert!(c.get(2).is_none(), "LRU entry must have been evicted");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut c = LruCache::new(2, GEN);
        c.insert(1, payload(1), GEN);
        c.insert(2, payload(2), GEN);
        // Re-inserting a resident key must not evict anything.
        c.insert(1, payload(9), GEN);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get(1).unwrap()[0], 9);
        assert!(c.get(2).is_some());
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = LruCache::new(0, GEN);
        c.insert(1, payload(1), GEN);
        assert_eq!(c.len(), 0);
        assert!(c.get(1).is_none());
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn churn_keeps_exactly_cap_entries() {
        let mut c = LruCache::new(8, GEN);
        for i in 0..1000u64 {
            c.insert(i, payload(i as u8), GEN);
        }
        assert_eq!(c.len(), 8);
        assert_eq!(c.evictions(), 1000 - 8);
        // The eight most recent keys survive.
        for i in 992..1000 {
            assert!(c.get(i).is_some(), "recent key {i} must be resident");
        }
    }

    #[test]
    fn invalidate_clears_and_restamps() {
        let mut c = LruCache::new(4, 1);
        c.insert(1, payload(1), 1);
        c.insert(2, payload(2), 1);
        c.invalidate(2);
        assert_eq!(c.len(), 0);
        assert_eq!(c.generation(), 2);
        assert!(c.get(1).is_none());
        // Invalidation is not an eviction.
        assert_eq!(c.evictions(), 0);
        c.insert(3, payload(3), 2);
        assert!(c.get(3).is_some());
    }

    #[test]
    fn stale_generation_inserts_are_refused() {
        let mut c = LruCache::new(4, 2);
        // A miss that started on generation 1 finishes after the swap.
        c.insert(1, payload(1), 1);
        assert_eq!(c.len(), 0, "stale-generation payload must not land");
        // Future generations are refused too (cannot happen in practice,
        // but the stamp is an equality contract, not an ordering one).
        c.insert(2, payload(2), 3);
        assert_eq!(c.len(), 0);
        c.insert(3, payload(3), 2);
        assert!(c.get(3).is_some());
    }
}
