//! Per-block hash tables: how a point read finds its row in a large block.
//!
//! Every block of a run that holds 16 to 254 rows gets a table of one-byte
//! slots, about 4/3 of a slot per row. A slot holds the index of a row in
//! the block plus 1, and 0 means empty. A lookup hashes the full key with
//! [`slot_hash`], starts at the slot the hash picks and walks on (linear
//! probing, wrapping at the end) until the key's row or an empty slot: at
//! the tables' load of at most 3/4, a present key meets about 2.4 rows on
//! average, where a binary search of a 196-row block compares eight keys
//! spread over the whole block. The tables are built with the block index,
//! in the same pass over the run's rows, and read only by point reads;
//! `lower_bound` and every scan keep the binary search, which also serves
//! every other block.
//!
//! Blocks under 16 rows get no table: their binary search takes at most
//! four compares, about what a probe sequence meets, so a table would cost
//! memory for no gain (the stress scale's blocks hold 8 rows). Blocks over
//! 254 rows get none either: a slot holds a row's index in one byte. The
//! design is RocksDB's data-block hash index, which likewise spends about a
//! byte per key inside a block the read has already paid for.

use std::ops::RangeInclusive;

/// The row counts of the blocks that get a table.
pub(crate) const HASHED_ROWS: RangeInclusive<usize> = 16..=MAX_ROWS;

/// The most rows a block's table indexes.
pub(crate) const MAX_ROWS: usize = 254;

/// Slots in the table of a block of `rows` rows: a third more than its
/// rows, rounded up, so a table is at most 3/4 full and always has an
/// empty slot to stop a probe; 0 for a block that gets no table.
#[inline]
pub(crate) fn table_len(rows: usize) -> usize {
    if HASHED_ROWS.contains(&rows) {
        rows + rows.div_ceil(3)
    } else {
        0
    }
}

/// A multiply-mix hash of the full key, 8 bytes a step: cheap enough to
/// run on every point read that reaches a hashed block. The key's length
/// seeds it, so keys that differ only by trailing zero bytes hash apart.
#[inline]
pub(crate) fn slot_hash(key: &[u8]) -> u32 {
    const MIX: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, word: u64| {
        let h = (h ^ word).wrapping_mul(MIX);
        h ^ h >> 29
    };
    let mut h = key.len() as u64;
    let mut rest = key;
    while let Some((word, tail)) = rest.split_first_chunk::<8>() {
        h = step(h, u64::from_le_bytes(*word));
        rest = tail;
    }
    if !rest.is_empty() {
        let mut word = [0u8; 8];
        word[..rest.len()].copy_from_slice(rest);
        h = step(h, u64::from_le_bytes(word));
    }
    (h.wrapping_mul(MIX) >> 32) as u32
}

/// The slot of a table of `len` slots where a probe for `hash` starts: the
/// hash scaled onto the table by a multiply, not a division.
#[inline]
fn first_slot(hash: u32, len: usize) -> usize {
    ((hash as u64 * len as u64) >> 32) as usize
}

/// The rows of its block that a lookup of `hash` in `table` meets, in probe
/// order, up to the first empty slot.
#[inline]
pub(crate) fn probe(table: &[u8], hash: u32) -> impl Iterator<Item = usize> + '_ {
    let (before, from) = table.split_at(first_slot(hash, table.len()));
    from.iter()
        .chain(before)
        .map_while(|&slot| (slot as usize).checked_sub(1))
}

/// Slots in the largest table.
const MAX_LEN: usize = MAX_ROWS + MAX_ROWS.div_ceil(3);

/// Fill the empty `table` with the rows whose slot hashes are `hashes`, in
/// row order, by linear probing: each row in the first free slot at or
/// after its first slot, wrapping at the end. A bitmap of the taken slots
/// finds that free slot with one bit scan of a 64-slot word, not with a
/// probe loop over the slots, whose trip count a branch predictor cannot
/// guess.
fn fill(table: &mut [u8], hashes: &[u32]) {
    let len = table.len();
    let mut taken = [0u64; MAX_LEN.div_ceil(64)];
    // The bits past the end count as taken, so no search stops there.
    if len % 64 != 0 {
        taken[len / 64] = !0 << (len % 64);
    }
    for (row, &hash) in hashes.iter().enumerate() {
        let mut slot = first_slot(hash, len);
        loop {
            let free = !taken[slot / 64] >> (slot % 64);
            if free != 0 {
                slot += free.trailing_zeros() as usize;
                break;
            }
            slot = (slot / 64 + 1) * 64;
            if slot >= len {
                slot = 0;
            }
        }
        taken[slot / 64] |= 1 << (slot % 64);
        table[slot] = row as u8 + 1;
    }
}

/// The tables of one run's blocks, back to back in one buffer.
#[derive(Debug, Default)]
pub(crate) struct BlockTables {
    /// Where each block's table starts in `slots`, one entry a block; a
    /// block without a table has an entry nothing reads.
    starts: Vec<u32>,
    slots: Vec<u8>,
}

impl BlockTables {
    /// The table of block `block`, which holds `rows` rows, or `None` when
    /// such a block gets none.
    #[inline]
    pub(crate) fn table(&self, block: usize, rows: usize) -> Option<&[u8]> {
        let len = table_len(rows);
        if len == 0 {
            return None;
        }
        let at = self.starts[block] as usize;
        Some(&self.slots[at..at + len])
    }

    /// The buffers: each block's table start, and the slots.
    #[cfg(test)]
    pub(crate) fn parts(&self) -> (&[u32], &[u8]) {
        (&self.starts, &self.slots)
    }
}

/// Builds a run's tables as its block index closes each block: the hashes
/// of the open block's rows wait in a fixed buffer, so a run whose blocks
/// all go without a table allocates nothing for them.
#[derive(Debug)]
pub(crate) struct TableBuilder {
    /// The hashes of the open block's first [`MAX_ROWS`] rows.
    pending: [u32; MAX_ROWS],
    tables: BlockTables,
}

impl Default for TableBuilder {
    fn default() -> Self {
        Self {
            pending: [0; MAX_ROWS],
            tables: BlockTables::default(),
        }
    }
}

impl TableBuilder {
    /// Take the hash of row `row` of the open block.
    #[inline]
    pub(crate) fn row(&mut self, row: usize, hash: u32) {
        if let Some(pending) = self.pending.get_mut(row) {
            *pending = hash;
        }
    }

    /// Close block `block`, which holds `rows` rows, building its table if
    /// it gets one. At the run's first table both buffers are sized once:
    /// the starts for `blocks` blocks in all, the slots for `rows_left`
    /// more rows (this block's included) all in hashed blocks.
    pub(crate) fn close(&mut self, block: usize, rows: usize, blocks: usize, rows_left: usize) {
        let BlockTables { starts, slots } = &mut self.tables;
        let len = table_len(rows);
        if len == 0 {
            if !starts.is_empty() {
                starts.push(slots.len() as u32);
            }
            return;
        }
        if starts.is_empty() {
            *starts = Vec::with_capacity(blocks.max(block + 1));
            starts.resize(block, 0);
            // A block of r rows takes r + ⌈r/3⌉ ≤ r + r/3 + 2/3 slots, and
            // there are at most R/16 hashed blocks in R rows: R + R/3 +
            // R/24 slots in all.
            let rows_left = rows_left.max(rows);
            *slots = Vec::with_capacity(rows_left + rows_left.div_ceil(3) + rows_left.div_ceil(24));
        }
        let at = slots.len();
        starts.push(at as u32);
        slots.resize(at + len, 0);
        fill(&mut slots[at..], &self.pending[..rows]);
    }

    /// The run's tables, or `None` when no block got one.
    pub(crate) fn finish(self) -> Option<Box<BlockTables>> {
        (!self.tables.starts.is_empty()).then(|| Box::new(self.tables))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_sized_for_hashed_blocks_only() {
        assert_eq!(table_len(15), 0);
        assert_eq!(table_len(16), 22);
        assert_eq!(table_len(196), 262);
        assert_eq!(table_len(254), 339);
        assert_eq!(table_len(255), 0);
        for rows in HASHED_ROWS {
            assert!(4 * rows <= 3 * table_len(rows), "{rows} rows");
        }
    }

    #[test]
    fn keys_that_differ_by_trailing_zeros_hash_apart() {
        assert_ne!(slot_hash(b"a"), slot_hash(b"a\0"));
        assert_ne!(slot_hash(b""), slot_hash(b"\0"));
        assert_ne!(slot_hash(b"user0000"), slot_hash(b"user0000\0"));
    }

    #[test]
    fn every_row_is_met_by_its_own_probe() {
        for rows in [16, 100, 196, 254] {
            let keys: Vec<Vec<u8>> = (0..rows)
                .map(|i| format!("user{:020}", i * 7919).into_bytes())
                .collect();
            let mut builder = TableBuilder::default();
            for (row, key) in keys.iter().enumerate() {
                builder.row(row, slot_hash(key));
            }
            builder.close(0, rows, 1, rows);
            let tables = builder.finish().expect("a hashed block");
            let table = tables.table(0, rows).expect("a table");
            assert_eq!(table.len(), table_len(rows));
            assert_eq!(table.iter().filter(|&&s| s != 0).count(), rows);
            for (row, key) in keys.iter().enumerate() {
                assert!(
                    probe(table, slot_hash(key)).any(|r| r == row),
                    "row {row} of {rows}"
                );
            }
        }
    }

    #[test]
    fn probes_wrap_past_the_end_of_the_table() {
        // Every row's first slot is the last one, so all but the first run
        // on from the table's start, in row order.
        for rows in [16, 64, 254] {
            let len = table_len(rows);
            let mut table = vec![0; len];
            fill(&mut table, &vec![u32::MAX; rows]);
            assert_eq!(table[len - 1], 1);
            assert_eq!(&table[..rows - 1], (2..=rows as u8).collect::<Vec<_>>());
            let met: Vec<usize> = probe(&table, u32::MAX).collect();
            assert_eq!(met, (0..rows).collect::<Vec<_>>());
        }
    }

    #[test]
    fn blocks_without_tables_allocate_nothing() {
        let mut builder = TableBuilder::default();
        for (block, rows) in [8, 15, 255, 400].into_iter().enumerate() {
            builder.close(block, rows, 4, 1000);
        }
        assert!(builder.finish().is_none());
    }
}
