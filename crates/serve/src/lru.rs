//! A content-addressed LRU cache with hit/miss/eviction accounting.
//!
//! Keys are the stable hex digests from [`crate::hash`]. The server's values
//! are the fully rendered `result` payloads, kept as shared `Arc<str>` text,
//! so a cache hit is byte-identical to the miss that populated it and
//! [`LruCache::get`]'s clone bumps a reference count instead of copying the
//! payload. Recency is tracked with a monotone tick and a
//! `BTreeMap<tick, key>` index — both lookups and evictions are `O(log n)`
//! with no unsafe code and no linked lists.

use std::collections::BTreeMap;

/// An LRU map from `String` keys to clonable values.
#[derive(Debug)]
pub struct LruCache<V> {
    cap: usize,
    tick: u64,
    map: BTreeMap<String, (u64, V)>,
    order: BTreeMap<u64, String>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V: Clone> LruCache<V> {
    /// A cache holding at most `cap` entries (`cap == 0` disables caching:
    /// every lookup misses and inserts are dropped).
    pub fn new(cap: usize) -> Self {
        LruCache {
            cap,
            tick: 0,
            map: BTreeMap::new(),
            order: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up `key`, counting a hit (and refreshing its recency) or a miss.
    pub fn get(&mut self, key: &str) -> Option<V> {
        match self.map.get_mut(key) {
            Some((tick, v)) => {
                self.hits += 1;
                self.order.remove(tick);
                self.tick += 1;
                *tick = self.tick;
                let v = v.clone();
                self.order.insert(self.tick, key.to_string());
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used entry
    /// when the cache is full.
    pub fn insert(&mut self, key: &str, value: V) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        if let Some((old_tick, _)) = self.map.get(key) {
            self.order.remove(old_tick);
        } else if self.map.len() >= self.cap {
            // `order` is non-empty whenever `map` is; the first tick is the
            // least recently used key.
            if let Some((&t, _)) = self.order.iter().next() {
                if let Some(victim) = self.order.remove(&t) {
                    self.map.remove(&victim);
                    self.evictions += 1;
                }
            }
        }
        self.map.insert(key.to_string(), (self.tick, value));
        self.order.insert(self.tick, key.to_string());
    }

    /// Drops every entry (hit/miss/eviction counters are kept — they count
    /// lifetime traffic, not current contents). Used when a model swap
    /// invalidates everything the cache could hold.
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries dropped to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_in_least_recently_used_order() {
        let mut c: LruCache<i32> = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        // Touch `a` so `b` becomes the LRU entry.
        assert_eq!(c.get("a"), Some(1));
        c.insert("c", 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("b"), None, "b was least recently used");
        assert_eq!(c.get("a"), Some(1));
        assert_eq!(c.get("c"), Some(3));
        assert_eq!(c.evictions(), 1);

        // Now `a` is LRU (b's miss did not refresh anything).
        c.insert("d", 4);
        assert_eq!(c.get("a"), None);
        assert_eq!(c.get("c"), Some(3));
        assert_eq!(c.get("d"), Some(4));
        assert_eq!(c.evictions(), 2);
    }

    #[test]
    fn hit_and_miss_counters_are_exact() {
        let mut c: LruCache<i32> = LruCache::new(4);
        assert_eq!(c.get("x"), None);
        assert_eq!(c.get("x"), None);
        c.insert("x", 7);
        assert_eq!(c.get("x"), Some(7));
        assert_eq!(c.get("y"), None);
        assert_eq!(c.get("x"), Some(7));
        assert_eq!((c.hits(), c.misses(), c.evictions()), (2, 3, 0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_refreshes_without_growth_and_zero_cap_disables() {
        let mut c: LruCache<i32> = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10); // refresh, not eviction
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get("a"), Some(10));
        c.insert("c", 3); // now b is LRU
        assert_eq!(c.get("b"), None);

        let mut off: LruCache<i32> = LruCache::new(0);
        off.insert("a", 1);
        assert_eq!(off.get("a"), None);
        assert!(off.is_empty());
        assert_eq!((off.hits(), off.misses()), (0, 1));
    }
}
