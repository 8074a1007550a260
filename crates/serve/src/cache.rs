//! Content-addressed result cache with LRU eviction.
//!
//! Keys are [`JobSpec::digest`](crate::spec::JobSpec::digest) values —
//! the FNV-1a hash of the spec's canonical encoding — so two textually
//! independent submissions of the same work share one entry. The
//! cluster computes each submission's digest once, at admission, and
//! passes it in; the cache never digests a spec itself. Each lookup or
//! insert probes the digest index once, a `cluster::KeyMap` whose
//! hasher is seeded per cache.
//!
//! The cache itself never computes. The cluster coordinator keeps it
//! deterministic by mutating it only in `(shard, dispatch)` order, and
//! it deduplicates identical jobs itself (see [`crate::cluster`]): the
//! first job with a digest claims the computation, and later ones join
//! it and share the leader's `Arc`.

use std::collections::hash_map::Entry;
use std::sync::{Arc, Mutex};

use crate::cluster::KeyMap;
use crate::result::JobResult;

/// Slab-index sentinel for "no node".
const NIL: usize = usize::MAX;

/// One entry of the intrusive LRU list, stored in a slab.
#[derive(Debug)]
struct Node {
    digest: u64,
    result: Arc<JobResult>,
    prev: usize,
    next: usize,
}

/// O(1) LRU: a hash map from digest to slab slot plus an intrusive
/// doubly-linked list from coldest (`head`) to hottest (`tail`).
/// Replaces the original `Vec<u64>` recency order, whose
/// position-scan-and-remove touch was O(capacity) per hit — the
/// dominant coordinator cost once the semester workload pushes a
/// million submissions through the cache tiers. The *logical* order is
/// identical, so every digest and eviction decision is unchanged.
#[derive(Debug)]
struct Lru {
    nodes: Vec<Node>,
    free: Vec<usize>,
    index: KeyMap<u64, usize>,
    /// Coldest entry (evicted first), or `NIL` when empty.
    head: usize,
    /// Hottest entry (most recently touched), or `NIL` when empty.
    tail: usize,
}

impl Default for Lru {
    fn default() -> Self {
        Lru {
            nodes: Vec::new(),
            free: Vec::new(),
            index: KeyMap::default(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl Lru {
    fn len(&self) -> usize {
        self.index.len()
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn push_hottest(&mut self, slot: usize) {
        self.nodes[slot].prev = self.tail;
        self.nodes[slot].next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.nodes[t].next = slot,
        }
        self.tail = slot;
    }

    /// Moves the entry in `slot` to the hottest position.
    fn touch(&mut self, slot: usize) {
        if self.tail != slot {
            self.unlink(slot);
            self.push_hottest(slot);
        }
    }

    /// The entry for `digest`, moved to the hottest position.
    fn get_touch(&mut self, digest: u64) -> Option<Arc<JobResult>> {
        let slot = *self.index.get(&digest)?;
        self.touch(slot);
        Some(Arc::clone(&self.nodes[slot].result))
    }

    /// Inserts a new entry at the hottest position and returns true. If
    /// the digest is already present, touches its entry instead (the
    /// held result stays) and returns false.
    fn insert(&mut self, digest: u64, result: Arc<JobResult>) -> bool {
        let vacant = match self.index.entry(digest) {
            Entry::Occupied(entry) => {
                let slot = *entry.get();
                self.touch(slot);
                return false;
            }
            Entry::Vacant(vacant) => vacant,
        };
        let node = Node {
            digest,
            result,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        vacant.insert(slot);
        self.push_hottest(slot);
        true
    }

    /// Removes and returns the coldest digest, or `None` when empty.
    fn pop_coldest(&mut self) -> Option<u64> {
        let slot = self.head;
        if slot == NIL {
            return None;
        }
        let digest = self.nodes[slot].digest;
        self.unlink(slot);
        self.index.remove(&digest);
        self.free.push(slot);
        Some(digest)
    }

    /// Digests from coldest to hottest — the recency order the cache
    /// digest is computed over.
    fn order(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len());
        let mut slot = self.head;
        while slot != NIL {
            out.push(self.nodes[slot].digest);
            slot = self.nodes[slot].next;
        }
        out
    }
}

/// The content-addressed cache. `capacity` 0 disables caching entirely
/// (every lookup misses and nothing is stored).
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    /// Ready results in LRU order, coldest first.
    lru: Mutex<Lru>,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` results.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            lru: Mutex::new(Lru::default()),
        }
    }

    /// Looks `digest` up; on a hit, bumps the entry to hottest. The
    /// cluster coordinator calls it in `(shard, dispatch)` order, which
    /// is what keeps the LRU state deterministic.
    pub fn lookup_touch(&self, digest: u64) -> Option<Arc<JobResult>> {
        self.lru.lock().expect("cache lock").get_touch(digest)
    }

    /// Inserts a computed result, evicting coldest entries past
    /// capacity. Returns how many entries were evicted. A no-op (and
    /// 0) when the cache is disabled or the digest is already present.
    pub fn insert(&self, digest: u64, result: Arc<JobResult>) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let mut lru = self.lru.lock().expect("cache lock");
        if !lru.insert(digest, result) {
            return 0;
        }
        let mut evicted = 0;
        while lru.len() > self.capacity {
            lru.pop_coldest();
            evicted += 1;
        }
        evicted
    }

    /// Number of ready entries currently held.
    pub fn len(&self) -> usize {
        self.lru.lock().expect("cache lock").len()
    }

    /// True when no results are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// FNV-1a digest of the LRU order (coldest to hottest) — the
    /// cache-state half of the cluster's determinism contract: two runs
    /// of the same workload must leave the cache in the same state.
    pub fn digest(&self) -> u64 {
        let order = self.lru.lock().expect("cache lock").order();
        let mut bytes = Vec::with_capacity(order.len() * 8);
        for d in &order {
            bytes.extend(d.to_le_bytes());
        }
        obs::trace::fnv1a(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(tag: &str) -> JobResult {
        JobResult {
            payload: tag.to_string(),
            metrics_json: format!("{{\"tag\": \"{tag}\"}}"),
        }
    }

    #[test]
    fn insert_then_lookup_hits() {
        let cache = ResultCache::new(4);
        assert!(cache.lookup_touch(1).is_none());
        cache.insert(1, Arc::new(result("a")));
        let hit = cache.lookup_touch(1).expect("hit");
        assert_eq!(hit.payload, "a");
    }

    #[test]
    fn lru_evicts_coldest_first_and_touch_protects() {
        let cache = ResultCache::new(2);
        cache.insert(1, Arc::new(result("a")));
        cache.insert(2, Arc::new(result("b")));
        // Touch 1 so 2 becomes coldest.
        assert!(cache.lookup_touch(1).is_some());
        let evicted = cache.insert(3, Arc::new(result("c")));
        assert_eq!(evicted, 1);
        assert!(cache.lookup_touch(2).is_none(), "2 was coldest");
        assert!(cache.lookup_touch(1).is_some());
        assert!(cache.lookup_touch(3).is_some());
        // Re-inserting a held digest evicts nothing, keeps the held
        // result and touches it, so 3 becomes coldest.
        assert_eq!(cache.insert(1, Arc::new(result("a2"))), 0);
        assert_eq!(cache.insert(4, Arc::new(result("d"))), 1);
        assert!(cache.lookup_touch(3).is_none(), "3 was coldest");
        assert_eq!(cache.lookup_touch(1).expect("1 held").payload, "a");
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = ResultCache::new(0);
        assert_eq!(cache.insert(1, Arc::new(result("a"))), 0);
        assert!(cache.lookup_touch(1).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn lru_links_survive_heavy_churn_and_slot_reuse() {
        // Insert far past capacity so slab slots are freed and reused,
        // interleaving touches; the surviving order must be exactly the
        // last `capacity` distinct digests in recency order.
        let cache = ResultCache::new(4);
        let mut evicted = 0;
        for i in 0..200u64 {
            evicted += cache.insert(i, Arc::new(result(&format!("r{i}"))));
            if i % 3 == 0 {
                // Touch the oldest survivor to force mid-list unlinks.
                let coldest = i.saturating_sub(3);
                cache.lookup_touch(coldest);
            }
        }
        assert_eq!(cache.len(), 4);
        // 200 distinct digests through 4 slots: every insert past the
        // fourth evicts one entry. The last insert (199) is hottest and
        // survives; digest 0 was evicted long ago.
        assert!(cache.lookup_touch(199).is_some());
        assert!(cache.lookup_touch(0).is_none());
        assert_eq!(evicted, 196);
    }

    #[test]
    fn digest_tracks_lru_order() {
        let a = ResultCache::new(4);
        let b = ResultCache::new(4);
        for cache in [&a, &b] {
            cache.insert(1, Arc::new(result("x")));
            cache.insert(2, Arc::new(result("y")));
        }
        assert_eq!(a.digest(), b.digest());
        // Touching reorders, so the digests diverge.
        a.lookup_touch(1);
        assert_ne!(a.digest(), b.digest());
    }
}
