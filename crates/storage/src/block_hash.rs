//! Hash tables over a segment's rows: how a point read finds its row in a
//! large block.
//!
//! A segment whose runs put 16 or more of its rows in a block gets tables,
//! built once where the segment is built and shared by every run that holds
//! it. The segment's rows are cut into fixed chunks of [`CHUNK_ROWS`] rows,
//! and each chunk has one table of 16-bit slots, a third more than its rows
//! (at most 3/4 full, so a probe always meets an empty slot). A slot holds
//! the row's index in its chunk plus 1 in its low 10 bits (0 is empty) and
//! a 6-bit tag, the low bits of the key's [`slot_hash`], above them; the
//! high bits of the same hash pick the slot a probe starts at. The tables
//! lie back to back, chunk `c`'s starting at slot `c` × [`CHUNK_SLOTS`], so
//! no start array is needed: 2.67 bytes per stored row.
//!
//! A lookup in a block of 16 or more rows that lies inside one segment with
//! tables hashes the full key once, probes the table of the chunk holding
//! the block's first row (and of each later chunk the block reaches) by
//! linear probing, and compares a full key only where a slot's tag matches:
//! a present key costs about one key compare, where a binary search of a
//! 196-row block compares eight keys spread over the whole block. Every
//! other block, and `lower_bound` and every scan, keep the binary search.
//!
//! Blocks under 16 rows get none: their binary search takes at most four
//! compares, about what a probe sequence meets, so a segment whose blocks
//! are that small (the stress scale's 8-row blocks) allocates nothing for
//! tables. The layout is RocksDB's data-block hash index, with the tag bits
//! of a SwissTable slot (Abseil's `flat_hash_map`).

use std::ops::Range;

use crate::segment::RowArena;
use crate::types::Cell;

/// The fewest rows in a block that a lookup finds through tables.
pub(crate) const MIN_ROWS: usize = 16;

/// Rows per chunk: the most a slot's 10-bit row field indexes, 1,023,
/// less one so that a chunk's slot count stays a whole third over.
const CHUNK_ROWS: usize = 1022;

/// Slots of a full chunk's table.
const CHUNK_SLOTS: usize = chunk_len(CHUNK_ROWS);

/// Bits of a slot that hold its row's index in the chunk plus 1.
const ROW_BITS: u32 = 10;

/// The row field of a slot.
const ROW_MASK: u16 = (1 << ROW_BITS) - 1;

// A chunk's row indexes plus 1 fit the row field.
const _: () = assert!(CHUNK_ROWS < 1 << ROW_BITS);

/// Slots in the table of a chunk of `rows` rows: a third more, rounded up.
const fn chunk_len(rows: usize) -> usize {
    rows + rows.div_ceil(3)
}

/// Slots in the tables of a segment of `rows` rows.
fn tables_len(rows: usize) -> usize {
    rows / CHUNK_ROWS * CHUNK_SLOTS + chunk_len(rows % CHUNK_ROWS)
}

/// True when a segment of `rows` rows that encode to `bytes` bytes gets
/// tables in runs of blocks of `block_size` bytes: when its rows average at
/// most a sixteenth of a block, so that its blocks hold 16 rows or more.
pub(crate) fn wanted(rows: usize, bytes: u64, block_size: u64) -> bool {
    rows > 0 && MIN_ROWS as u128 * bytes as u128 <= rows as u128 * block_size as u128
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

/// The tag a slot of `hash`'s row carries, above its row field: the hash's
/// low bits, which the start slot (scaled from the high bits) barely uses.
#[inline]
fn tag(hash: u32) -> u16 {
    (hash as u16) << ROW_BITS
}

/// The slot of a table of `len` slots where a probe for `hash` starts: the
/// hash scaled onto the table by a multiply, not a division.
#[inline]
fn first_slot(hash: u32, len: usize) -> usize {
    ((hash as u64 * len as u64) >> 32) as usize
}

/// The tables of one segment, back to back.
#[derive(Debug)]
pub(crate) struct Tables(Box<[u16]>);

impl Tables {
    /// The table of chunk `chunk`: a full chunk's slots, or fewer for the
    /// segment's last chunk.
    #[inline]
    fn chunk(&self, chunk: usize) -> &[u16] {
        let at = chunk * CHUNK_SLOTS;
        &self.0[at..(at + CHUNK_SLOTS).min(self.0.len())]
    }

    /// The cell of `key` among the rows `block` of `rows`, the segment these
    /// tables index, or `None` when those rows do not hold it. The probe
    /// walks each chunk `block` reaches, from the slot the key's hash picks
    /// up to an empty slot, and compares a key only where the tag matches.
    #[inline]
    pub(crate) fn find<'r>(
        &self,
        rows: &'r RowArena,
        block: Range<usize>,
        key: &[u8],
    ) -> Option<&'r Cell> {
        let hash = slot_hash(key);
        let tag = tag(hash);
        for chunk in block.start / CHUNK_ROWS..=(block.end - 1) / CHUNK_ROWS {
            let table = self.chunk(chunk);
            let (before, from) = table.split_at(first_slot(hash, table.len()));
            for &slot in from.iter().chain(before) {
                if slot & ROW_MASK == 0 {
                    break;
                }
                if slot & !ROW_MASK != tag {
                    continue;
                }
                let at = chunk * CHUNK_ROWS + (slot & ROW_MASK) as usize - 1;
                if block.contains(&at) && rows.key(at) == key {
                    return Some(rows.cell(at));
                }
            }
        }
        None
    }

    /// The slots, every chunk's table back to back.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> &[u16] {
        &self.0
    }
}

/// Fills a segment's tables as its rows arrive in order, one slot hash at a
/// time: each row goes in the first free slot of its chunk's table at or
/// after the slot its hash picks, wrapping at the table's end. A bitmap of
/// the open chunk's taken slots finds that slot with one bit scan of a
/// 64-slot word, not a probe loop, whose trip count a branch predictor
/// cannot guess.
#[derive(Debug)]
pub(crate) struct TableFill {
    slots: Box<[u16]>,
    /// Rows filled in so far.
    rows: usize,
    taken: [u64; CHUNK_SLOTS.div_ceil(64)],
}

impl TableFill {
    /// Empty tables for a segment of `rows` rows, allocated once.
    pub(crate) fn new(rows: usize) -> Self {
        Self {
            slots: vec![0; tables_len(rows)].into_boxed_slice(),
            rows: 0,
            taken: [0; CHUNK_SLOTS.div_ceil(64)],
        }
    }

    /// Put in the next row, whose key's [`slot_hash`] is `hash`.
    #[inline]
    pub(crate) fn push(&mut self, hash: u32) {
        let (chunk, row) = (self.rows / CHUNK_ROWS, self.rows % CHUNK_ROWS);
        let at = chunk * CHUNK_SLOTS;
        let len = CHUNK_SLOTS.min(self.slots.len() - at);
        if row == 0 {
            self.taken = [0; CHUNK_SLOTS.div_ceil(64)];
            // The bits past the table's end count as taken, so no search
            // stops there.
            if len % 64 != 0 {
                self.taken[len / 64] = !0 << (len % 64);
            }
        }
        let mut slot = first_slot(hash, len);
        loop {
            let free = !self.taken[slot / 64] >> (slot % 64);
            if free != 0 {
                slot += free.trailing_zeros() as usize;
                break;
            }
            slot = (slot / 64 + 1) * 64;
            if slot >= len {
                slot = 0;
            }
        }
        self.taken[slot / 64] |= 1 << (slot % 64);
        self.slots[at + slot] = tag(hash) | (row + 1) as u16;
        self.rows += 1;
    }

    /// The tables, once every row is in.
    pub(crate) fn finish(self) -> Tables {
        debug_assert_eq!(tables_len(self.rows), self.slots.len(), "rows missing");
        Tables(self.slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tables of `rows`, filled with their keys' slot hashes.
    fn tables_of(rows: &RowArena) -> Tables {
        let mut fill = TableFill::new(rows.len());
        for (key, _) in rows.iter() {
            fill.push(slot_hash(key));
        }
        fill.finish()
    }

    fn arena(rows: usize) -> RowArena {
        let mut arena = RowArena::default();
        for i in 0..rows {
            let key = format!("user{:020}", i * 7919);
            arena.push(key.as_bytes(), Cell::tombstone(i as u64));
        }
        arena
    }

    #[test]
    fn chunks_are_at_most_three_quarters_full_at_under_2_7_bytes_a_row() {
        assert_eq!(CHUNK_SLOTS, 1363);
        assert_eq!(tables_len(0), 0);
        assert_eq!(tables_len(16), 22);
        assert_eq!(tables_len(1022), 1363);
        assert_eq!(tables_len(1023), 1365);
        assert_eq!(tables_len(3 * 1022 + 100), 3 * 1363 + 134);
        for rows in 1..=3 * CHUNK_ROWS {
            let last = rows - (rows - 1) / CHUNK_ROWS * CHUNK_ROWS;
            assert!(4 * last <= 3 * chunk_len(last), "{rows} rows");
        }
        assert!(2 * tables_len(100_000) <= 27 * 100_000 / 10);
    }

    #[test]
    fn segments_of_16_rows_a_block_or_more_want_tables() {
        // 42-byte rows: 8 KB blocks hold 196, 512-byte blocks 13.
        assert!(wanted(1000, 42_000, 8192));
        assert!(wanted(1000, 42_000, 16 * 42));
        assert!(!wanted(1000, 42_000, 16 * 42 - 1));
        assert!(!wanted(1000, 42_000, 512));
        assert!(!wanted(0, 0, 8192));
        assert!(wanted(1, 1, u64::MAX));
    }

    #[test]
    fn keys_that_differ_by_trailing_zeros_hash_apart() {
        assert_ne!(slot_hash(b"a"), slot_hash(b"a\0"));
        assert_ne!(slot_hash(b""), slot_hash(b"\0"));
        assert_ne!(slot_hash(b"user0000"), slot_hash(b"user0000\0"));
    }

    #[test]
    fn every_row_is_found_by_its_key_in_any_block_that_holds_it() {
        for rows in [16, 1021, 1022, 1023, 2500] {
            let arena = arena(rows);
            let tables = tables_of(&arena);
            assert_eq!(tables.slots().len(), tables_len(rows));
            assert_eq!(tables.slots().iter().filter(|&&s| s != 0).count(), rows);
            for (i, (key, cell)) in arena.iter().enumerate() {
                let found = tables.find(&arena, i..i + 1, key);
                assert!(
                    found.is_some_and(|c| std::ptr::eq(c, cell)),
                    "row {i} of {rows}"
                );
                let all = tables.find(&arena, 0..rows, key);
                assert!(
                    all.is_some_and(|c| std::ptr::eq(c, cell)),
                    "row {i} of {rows}"
                );
                // A block that does not hold the row does not find it.
                let other = if i == 0 { 1..rows } else { 0..i };
                assert_eq!(tables.find(&arena, other, key), None, "row {i} of {rows}");
            }
            assert_eq!(tables.find(&arena, 0..rows, b"user"), None);
        }
    }

    #[test]
    fn probes_wrap_past_the_end_of_a_chunk_table() {
        // Every row's first slot is the last one, so all but the first run
        // on from the table's start, in row order, each with the tag.
        for rows in [16, 64, 1022] {
            let len = chunk_len(rows);
            let mut fill = TableFill::new(rows);
            for _ in 0..rows {
                fill.push(u32::MAX);
            }
            let slots = fill.finish().0;
            let tag = tag(u32::MAX);
            assert_eq!(slots[len - 1], tag | 1);
            let want: Vec<u16> = (2..=rows as u16).map(|r| tag | r).collect();
            assert_eq!(&slots[..rows - 1], want);
        }
    }
}
