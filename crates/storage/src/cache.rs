//! The block cache.
//!
//! Tracks which SSTable blocks are resident in a node's RAM, with byte-exact
//! capacity accounting and O(1) LRU eviction: a `u32` slot per block of each
//! run indexes a slab of 24-byte nodes in an intrusive list (DESIGN.md §5i).
//! Whether a read is a cache hit or a disk seek is *the* determinant of
//! latency on the paper's HDD testbed, so this is a real cache, not a dial.

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

/// A resident block; once evicted, `next` links the free list.
#[derive(Debug, Clone)]
struct Node {
    table: TableId,
    block: u32,
    bytes: u32,
    prev: u32,
    next: u32,
}

/// A run's index: each block's node, or `NIL` when it is not resident.
#[derive(Debug, Clone)]
struct Run {
    table: TableId,
    slots: Vec<u32>,
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
    runs: Vec<Run>,
    nodes: Vec<Node>,
    free: u32, // first node of the free list
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
            runs: Vec::new(),
            nodes: Vec::new(),
            free: NIL,
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

    /// The warm-up boundary, where a base store is left to clone: reset the
    /// counters (not the contents) and drop the slab's spare room.
    pub(crate) fn end_warm_up(&mut self) {
        self.stats = CacheStats::default();
        self.nodes.shrink_to_fit();
    }

    /// Index the run `table` of `blocks` blocks, none of them resident.
    pub(crate) fn add_run(&mut self, table: TableId, blocks: usize) {
        let slots = vec![NIL; blocks];
        self.runs.push(Run { table, slots });
    }

    /// `key`'s run's position (`runs.len()` for a run not indexed yet) and
    /// its node (`NIL` when not resident).
    fn find(&self, key: BlockKey) -> (usize, u32) {
        let found = self.runs.iter().position(|r| r.table == key.table);
        let run = found.unwrap_or(self.runs.len());
        let slots = self.runs.get(run).map_or(&[][..], |r| &r.slots);
        (run, slots.get(key.block as usize).copied().unwrap_or(NIL))
    }

    fn detach(&mut self, idx: u32) {
        let Node { prev, next, .. } = self.nodes[idx as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Look up a block, marking it most-recently-used on a hit. Returns the
    /// block's cached size, or `None` on a miss.
    pub fn get(&mut self, key: BlockKey) -> Option<u64> {
        let idx = self.find(key).1;
        self.touch(idx)
            .then(|| u64::from(self.nodes[idx as usize].bytes))
    }

    /// [`BlockCache::get`] of block `block` of `table`, then, on a miss,
    /// [`BlockCache::insert`] of `bytes`, finding the block once. True on a hit.
    pub(crate) fn fetch(&mut self, table: TableId, block: u32, bytes: u64) -> bool {
        let key = BlockKey { table, block };
        let (run, idx) = self.find(key);
        let hit = self.touch(idx);
        if !hit {
            self.put(run, idx, key, bytes);
        }
        hit
    }

    /// Count a lookup that found node `idx` (`NIL`: a miss); a hit is now MRU.
    fn touch(&mut self, idx: u32) -> bool {
        if idx == NIL {
            self.stats.misses += 1;
            return false;
        }
        self.stats.hits += 1;
        self.detach(idx);
        self.push_front(idx);
        true
    }

    /// Insert (or refresh) a block of `bytes`, evicting LRU blocks as needed.
    /// Blocks larger than the whole cache (or than 4 GiB) are ignored.
    pub fn insert(&mut self, key: BlockKey, bytes: u64) {
        let (run, idx) = self.find(key);
        self.put(run, idx, key, bytes);
    }

    /// [`BlockCache::insert`] of `key`, found at `(run, idx)`.
    fn put(&mut self, run: usize, idx: u32, key: BlockKey, bytes: u64) {
        let Some(size) = u32::try_from(bytes).ok().filter(|_| bytes <= self.capacity) else {
            return;
        };
        let idx = if idx != NIL {
            // Refresh: update size and recency.
            self.used -= u64::from(self.nodes[idx as usize].bytes);
            self.nodes[idx as usize].bytes = size;
            self.detach(idx);
            idx
        } else {
            while self.used + bytes > self.capacity {
                self.evict_lru(); // empties slots, moves no run
            }
            if run == self.runs.len() {
                self.add_run(key.table, 0);
            }
            let slots = &mut self.runs[run].slots;
            slots.resize(slots.len().max(key.block as usize + 1), NIL);
            let node = Node {
                table: key.table,
                block: key.block,
                bytes: size,
                prev: NIL,
                next: NIL,
            };
            let idx = if self.free == NIL {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            } else {
                let idx = self.free;
                self.free = std::mem::replace(&mut self.nodes[idx as usize], node).next;
                idx
            };
            self.runs[run].slots[key.block as usize] = idx;
            idx
        };
        self.used += bytes;
        self.push_front(idx);
    }

    /// Unlink node `idx` and put it on the free list.
    fn release(&mut self, idx: u32) {
        self.detach(idx);
        self.used -= u64::from(self.nodes[idx as usize].bytes);
        self.nodes[idx as usize].next = self.free;
        self.free = idx;
    }

    fn evict_lru(&mut self) {
        let idx = self.tail;
        debug_assert!(idx != NIL, "evicting from an empty cache");
        let Node { table, block, .. } = self.nodes[idx as usize];
        let run = self.find(BlockKey { table, block }).0;
        self.runs[run].slots[block as usize] = NIL;
        self.release(idx);
        self.stats.evictions += 1;
    }

    /// Drop every block (a restart: caches come back cold), keeping slots.
    pub fn clear(&mut self) {
        self.runs.iter_mut().for_each(|run| run.slots.fill(NIL));
        self.nodes.clear();
        (self.free, self.head, self.tail, self.used) = (NIL, NIL, NIL, 0);
    }

    /// Drop the run `table`, its blocks and slots (compaction deleted it).
    pub fn invalidate_table(&mut self, table: TableId) {
        if let Some(run) = self.runs.iter().position(|r| r.table == table) {
            let slots = self.runs.swap_remove(run).slots;
            for idx in slots.into_iter().filter(|&i| i != NIL) {
                self.release(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BlockCache {
        /// Peek residency without touching LRU order or stats.
        fn contains(&self, key: BlockKey) -> bool {
            self.find(key).1 != NIL
        }
    }

    /// Blocks the runs' slots index.
    fn indexed(c: &BlockCache) -> usize {
        let slots = c.runs.iter().flat_map(|r| &r.slots);
        slots.filter(|&&idx| idx != NIL).count()
    }

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
        assert_eq!(indexed(&c), 2);
    }

    #[test]
    fn oversized_blocks_are_rejected() {
        let mut c = BlockCache::new(50);
        c.insert(bk(1, 0), 100);
        assert_eq!(indexed(&c), 0);
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
        assert!(c.nodes.len() <= 2, "slab grew to {}", c.nodes.len());
    }

    #[test]
    fn hit_rate_math() {
        let mut c = BlockCache::new(1000);
        c.insert(bk(1, 0), 10);
        c.get(bk(1, 0));
        c.get(bk(1, 0));
        c.get(bk(9, 9));
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        c.end_warm_up();
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
        // Index and list agree on membership count.
        let mut count = 0;
        let mut idx = c.head;
        while idx != NIL {
            count += 1;
            idx = c.nodes[idx as usize].next;
        }
        assert_eq!(count, indexed(&c));
    }
}
