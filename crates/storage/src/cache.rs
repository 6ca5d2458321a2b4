//! The block cache.
//!
//! Tracks which SSTable blocks are resident in a node's RAM, with byte-exact
//! capacity accounting and O(1) LRU eviction (hash map + intrusive doubly
//! linked list over a slab). Whether a read is a cache hit or a disk seek is
//! *the* determinant of latency on the paper's HDD testbed, so this is a real
//! cache, not a hit-rate dial.

use simkit::FastHashMap;

use crate::sstable::TableId;

/// Identity of one cacheable block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockKey {
    /// Owning table.
    pub table: TableId,
    /// Block index within the table.
    pub block: u32,
}

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    key: BlockKey,
    bytes: u64,
    prev: u32,
    next: u32,
}

/// Hit/miss counters for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the block resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Blocks evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A byte-bounded LRU cache of SSTable blocks.
#[derive(Debug, Clone)]
pub struct BlockCache {
    // Seeded fast-hash map: block keys are two small integers looked up on
    // every cached read, where SipHash was pure overhead.
    map: FastHashMap<BlockKey, u32>,
    slab: Vec<Node>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    capacity: u64,
    used: u64,
    stats: CacheStats,
}

impl BlockCache {
    /// Create a cache bounded at `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Self {
            map: FastHashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            used: 0,
            stats: CacheStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset the counters (not the contents); used at the warm-up boundary.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn detach(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.slab[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.slab[idx as usize].prev = NIL;
        self.slab[idx as usize].next = self.head;
        if self.head != NIL {
            self.slab[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Look up a block, marking it most-recently-used on a hit. Returns the
    /// block's cached size, or `None` on a miss.
    pub fn get(&mut self, key: BlockKey) -> Option<u64> {
        match self.map.get(&key).copied() {
            Some(idx) => {
                self.stats.hits += 1;
                self.detach(idx);
                self.push_front(idx);
                Some(self.slab[idx as usize].bytes)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peek residency without touching LRU order or stats.
    #[cfg(test)]
    pub(crate) fn contains(&self, key: BlockKey) -> bool {
        self.map.contains_key(&key)
    }

    /// Insert (or refresh) a block of `bytes`, evicting LRU blocks as needed.
    /// Blocks larger than the whole cache are ignored.
    pub fn insert(&mut self, key: BlockKey, bytes: u64) {
        if bytes > self.capacity {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            // Refresh: update size and recency.
            let old = self.slab[idx as usize].bytes;
            self.used = self.used - old + bytes;
            self.slab[idx as usize].bytes = bytes;
            self.detach(idx);
            self.push_front(idx);
        } else {
            while self.used + bytes > self.capacity {
                self.evict_lru();
            }
            let node = Node {
                key,
                bytes,
                prev: NIL,
                next: NIL,
            };
            let idx = if let Some(free) = self.free.pop() {
                self.slab[free as usize] = node;
                free
            } else {
                self.slab.push(node);
                (self.slab.len() - 1) as u32
            };
            self.map.insert(key, idx);
            self.used += bytes;
            self.push_front(idx);
        }
    }

    fn evict_lru(&mut self) {
        let idx = self.tail;
        debug_assert!(idx != NIL, "evicting from an empty cache");
        self.detach(idx);
        let node = &self.slab[idx as usize];
        self.used -= node.bytes;
        self.map.remove(&node.key);
        self.free.push(idx);
        self.stats.evictions += 1;
    }

    /// Drop everything (a process restart: caches come back cold).
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.used = 0;
    }

    /// Drop every block belonging to `table` (called when compaction deletes
    /// the table).
    pub(crate) fn invalidate_table(&mut self, table: TableId) {
        let victims: Vec<u32> = self
            .map
            .iter()
            .filter(|(k, _)| k.table == table)
            .map(|(_, &idx)| idx)
            .collect();
        self.map.retain(|k, _| k.table != table);
        for idx in victims {
            self.detach(idx);
            self.used -= self.slab[idx as usize].bytes;
            self.free.push(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bk(t: u64, b: u32) -> BlockKey {
        BlockKey {
            table: TableId(t),
            block: b,
        }
    }

    #[test]
    fn hit_after_insert() {
        let mut c = BlockCache::new(1000);
        c.insert(bk(1, 0), 100);
        assert_eq!(c.get(bk(1, 0)), Some(100));
        assert_eq!(c.get(bk(1, 1)), None);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = BlockCache::new(300);
        c.insert(bk(1, 0), 100);
        c.insert(bk(1, 1), 100);
        c.insert(bk(1, 2), 100);
        // Touch block 0 so block 1 becomes LRU.
        c.get(bk(1, 0));
        c.insert(bk(1, 3), 100);
        assert!(c.contains(bk(1, 0)));
        assert!(!c.contains(bk(1, 1)), "LRU block should be evicted");
        assert!(c.contains(bk(1, 2)));
        assert!(c.contains(bk(1, 3)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn capacity_is_byte_exact() {
        let mut c = BlockCache::new(250);
        c.insert(bk(1, 0), 100);
        c.insert(bk(1, 1), 100);
        assert_eq!(c.used, 200);
        // 100 more would exceed 250: one eviction needed.
        c.insert(bk(1, 2), 100);
        assert_eq!(c.used, 200);
        assert_eq!(c.map.len(), 2);
    }

    #[test]
    fn oversized_blocks_are_rejected() {
        let mut c = BlockCache::new(50);
        c.insert(bk(1, 0), 100);
        assert!(c.map.is_empty());
    }

    #[test]
    fn refresh_updates_size_and_recency() {
        let mut c = BlockCache::new(300);
        c.insert(bk(1, 0), 100);
        c.insert(bk(1, 1), 100);
        c.insert(bk(1, 0), 150); // refresh, now MRU and bigger
        assert_eq!(c.used, 250);
        c.insert(bk(1, 2), 50);
        // Adding 50 exceeds 300 by 0? used=250+50=300 == capacity, fits.
        assert_eq!(c.used, 300);
        c.insert(bk(1, 3), 10);
        // block 1 was LRU.
        assert!(!c.contains(bk(1, 1)));
        assert!(c.contains(bk(1, 0)));
    }

    #[test]
    fn invalidate_table_removes_only_that_table() {
        let mut c = BlockCache::new(1000);
        c.insert(bk(1, 0), 100);
        c.insert(bk(1, 1), 100);
        c.insert(bk(2, 0), 100);
        c.invalidate_table(TableId(1));
        assert!(!c.contains(bk(1, 0)));
        assert!(!c.contains(bk(1, 1)));
        assert!(c.contains(bk(2, 0)));
        assert_eq!(c.used, 100);
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut c = BlockCache::new(100);
        for i in 0..1000u32 {
            c.insert(bk(1, i), 100);
        }
        // One slot live at a time; slab should stay tiny.
        assert!(c.slab.len() <= 2, "slab grew to {}", c.slab.len());
    }

    #[test]
    fn hit_rate_math() {
        let mut c = BlockCache::new(1000);
        c.insert(bk(1, 0), 10);
        c.get(bk(1, 0));
        c.get(bk(1, 0));
        c.get(bk(9, 9));
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        c.reset_stats();
        assert_eq!(c.stats().hit_rate(), 0.0);
    }

    #[test]
    fn heavy_churn_keeps_invariants() {
        let mut c = BlockCache::new(10_000);
        for i in 0..10_000u32 {
            c.insert(bk((i % 7) as u64, i % 501), 64 + (i as u64 % 200));
            if i % 3 == 0 {
                c.get(bk((i % 5) as u64, i % 97));
            }
            assert!(c.used <= c.capacity);
        }
        // Map and list agree on membership count.
        let mut count = 0;
        let mut idx = c.head;
        while idx != NIL {
            count += 1;
            idx = c.slab[idx as usize].next;
        }
        assert_eq!(count, c.map.len());
    }
}
