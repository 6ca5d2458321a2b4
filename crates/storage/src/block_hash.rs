//! Hash tables over a segment's rows: how a point read finds its row.
//!
//! Every non-empty segment gets tables where it is built, and every run
//! that holds the segment shares them. The segment's rows are cut into
//! fixed chunks of [`CHUNK_ROWS`] rows, and each chunk has one table of
//! 16-bit slots, a third more than its rows (at most 3/4 full, so a probe
//! always meets an empty slot). A slot holds the row's index in its chunk
//! plus 1 in its low 10 bits (0 is empty) and a 6-bit tag, the low bits of
//! the key's [`slot_hash`], above them; the high bits of the same hash pick
//! the slot a probe starts at. One allocation holds it all: first the
//! [`KeyPrefix`] of each chunk's first key, as [`PREFIX_WORDS`] slots, then
//! the chunks' tables back to back, chunk `c`'s starting [`CHUNK_SLOTS`] ×
//! `c` slots past the prefixes: 2.68 bytes per stored row.
//!
//! A lookup picks the chunk that can hold the key by a binary search of the
//! chunk prefixes, reading a row's key from the arena only on a prefix tie,
//! then hashes the key once and probes that chunk's table by linear
//! probing, comparing a full key only where a slot's tag matches: a present
//! key costs about one key compare, where a binary search of a 196-row
//! block compares eight keys spread over the whole block. The row it finds
//! names the block to charge. The chunk prefixes are a run's only index:
//! a scan's first row, and the block a bloom filter's false positive
//! charges, come from a binary search of the one chunk they pick. The
//! layout is RocksDB's data-block hash index, with the tag bits of a
//! SwissTable slot (Abseil's `flat_hash_map`).

use std::cmp::Ordering;

use crate::segment::RowArena;
use crate::types::{key_prefix, KeyPrefix};

/// Rows per chunk: the most a slot's 10-bit row field indexes, 1,023,
/// less one so that a chunk's slot count stays a whole third over.
const CHUNK_ROWS: usize = 1022;

/// Slots of a full chunk's table.
const CHUNK_SLOTS: usize = chunk_len(CHUNK_ROWS);

/// Slots a chunk's first-key prefix takes, most significant word first.
const PREFIX_WORDS: usize = KeyPrefix::BITS as usize / 16;

/// Bits of a slot that hold its row's index in the chunk plus 1.
const ROW_BITS: u32 = 10;

/// The row field of a slot.
const ROW_MASK: u16 = (1 << ROW_BITS) - 1;

// A chunk's row indexes plus 1 fit the row field.
const _: () = assert!(CHUNK_ROWS < 1 << ROW_BITS);

/// The rows `from..to` of chunk `chunk` of a segment of `rows` rows.
pub(crate) fn chunk_rows(chunk: usize, rows: usize) -> (usize, usize) {
    let from = chunk * CHUNK_ROWS;
    (from, (from + CHUNK_ROWS).min(rows))
}

/// Slots in the table of a chunk of `rows` rows: a third more, rounded up.
const fn chunk_len(rows: usize) -> usize {
    rows + rows.div_ceil(3)
}

/// Slots of a segment of `rows` rows: its chunks' prefixes and tables.
fn tables_len(rows: usize) -> usize {
    let tables = rows / CHUNK_ROWS * CHUNK_SLOTS + chunk_len(rows % CHUNK_ROWS);
    rows.div_ceil(CHUNK_ROWS) * PREFIX_WORDS + tables
}

/// The chunks of tables of `len` slots. Each chunk but the last takes
/// `CHUNK_SLOTS + PREFIX_WORDS` slots and the last from 10 up to as many,
/// so the count is the slots over that, rounded up.
#[inline]
fn chunks(len: usize) -> usize {
    len.div_ceil(CHUNK_SLOTS + PREFIX_WORDS)
}

/// A multiply-mix hash of the full key, 8 bytes a step: cheap enough to
/// run on every point read. The key's length seeds it, so keys that differ
/// only by trailing zero bytes hash apart.
#[inline]
fn slot_hash(key: &[u8]) -> u32 {
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

/// The tables of one segment: its chunks' first-key prefixes, then their
/// tables back to back, in one allocation (none for an empty segment).
#[derive(Debug)]
pub(crate) struct Tables(Box<[u16]>);

impl Tables {
    /// The prefix of chunk `chunk`'s first key.
    #[inline]
    fn prefix(&self, chunk: usize) -> KeyPrefix {
        let words = &self.0[chunk * PREFIX_WORDS..][..PREFIX_WORDS];
        (words.iter()).fold(0, |prefix, &word| prefix << 16 | word as KeyPrefix)
    }

    /// The table of chunk `chunk`: a full chunk's slots, or fewer for the
    /// segment's last chunk.
    #[inline]
    fn table(&self, chunk: usize) -> &[u16] {
        let at = chunks(self.0.len()) * PREFIX_WORDS + chunk * CHUNK_SLOTS;
        &self.0[at..(at + CHUNK_SLOTS).min(self.0.len())]
    }

    /// The chunk of `rows`, the segment these tables index, that can hold
    /// `key`, whose prefix is `prefix`: the last whose first key is at or
    /// below it, or `None` when `key` sorts before the first row. A binary
    /// search of the chunk prefixes, reading a first key only on a prefix
    /// tie; a key before the first row (one a run's earlier segment holds)
    /// costs one compare.
    #[inline]
    pub(crate) fn chunk_of(&self, rows: &RowArena, prefix: KeyPrefix, key: &[u8]) -> Option<usize> {
        let at_or_below = |chunk: usize| match self.prefix(chunk).cmp(&prefix) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => rows.key(chunk * CHUNK_ROWS) <= key,
        };
        let chunks = chunks(self.0.len());
        if chunks == 0 || !at_or_below(0) {
            return None;
        }
        let (mut lo, mut hi) = (1, chunks);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if at_or_below(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Some(lo - 1)
    }

    /// The row of `key` among the rows of chunk `chunk` of `rows`, or
    /// `None` when they do not hold it. The probe walks the chunk's table
    /// from the slot the key's hash picks up to an empty slot, and compares
    /// a key only where the tag matches.
    #[inline]
    pub(crate) fn probe(&self, rows: &RowArena, chunk: usize, key: &[u8]) -> Option<usize> {
        let hash = slot_hash(key);
        let tag = tag(hash);
        let table = self.table(chunk);
        let (before, from) = table.split_at(first_slot(hash, table.len()));
        for &slot in from.iter().chain(before) {
            if slot & ROW_MASK == 0 {
                break;
            }
            if slot & !ROW_MASK != tag {
                continue;
            }
            let at = chunk * CHUNK_ROWS + (slot & ROW_MASK) as usize - 1;
            if rows.key(at) == key {
                return Some(at);
            }
        }
        None
    }
}

/// Fills a segment's tables as its rows arrive in order, one key at a
/// time: each row goes in the first free slot of its chunk's table at or
/// after the slot its hash picks, wrapping at the table's end, and a
/// chunk's first row also writes the chunk's prefix. A bitmap of the open
/// chunk's taken slots finds that slot with one bit scan of a 64-slot word,
/// not a probe loop, whose trip count a branch predictor cannot guess.
#[derive(Debug)]
pub(crate) struct TableFill {
    slots: Box<[u16]>,
    /// Where the first chunk's table starts: past every chunk's prefix.
    tables_at: usize,
    /// Rows filled in so far.
    rows: usize,
    taken: [u64; CHUNK_SLOTS.div_ceil(64)],
}

impl TableFill {
    /// Empty tables for a segment of `rows` rows, allocated once.
    pub(crate) fn new(rows: usize) -> Self {
        Self {
            slots: vec![0; tables_len(rows)].into_boxed_slice(),
            tables_at: rows.div_ceil(CHUNK_ROWS) * PREFIX_WORDS,
            rows: 0,
            taken: [0; CHUNK_SLOTS.div_ceil(64)],
        }
    }

    /// Put in the next row, whose key is `key`.
    #[inline]
    pub(crate) fn push(&mut self, key: &[u8]) {
        let hash = slot_hash(key);
        let (chunk, row) = (self.rows / CHUNK_ROWS, self.rows % CHUNK_ROWS);
        let at = self.tables_at + chunk * CHUNK_SLOTS;
        let len = CHUNK_SLOTS.min(self.slots.len() - at);
        if row == 0 {
            let prefix = key_prefix(key);
            let words = &mut self.slots[chunk * PREFIX_WORDS..][..PREFIX_WORDS];
            for (i, word) in words.iter_mut().enumerate() {
                *word = (prefix >> (16 * (PREFIX_WORDS - 1 - i))) as u16;
            }
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
impl Tables {
    /// The slots: the chunk prefixes, then every chunk's table.
    pub(crate) fn slots(&self) -> &[u16] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Cell;

    /// Tables of `rows`, filled with their keys.
    fn tables_of(rows: &RowArena) -> Tables {
        let mut fill = TableFill::new(rows.len());
        for (key, _) in rows.iter() {
            fill.push(key);
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

    /// The row of `key` in `rows` through `tables`.
    fn find(tables: &Tables, rows: &RowArena, key: &[u8]) -> Option<usize> {
        let chunk = tables.chunk_of(rows, key_prefix(key), key)?;
        tables.probe(rows, chunk, key)
    }

    #[test]
    fn chunks_are_at_most_three_quarters_full_at_under_2_7_bytes_a_row() {
        assert_eq!(CHUNK_SLOTS, 1363);
        assert_eq!(tables_len(0), 0);
        assert_eq!(tables_len(1), 8 + 2);
        assert_eq!(tables_len(16), 8 + 22);
        assert_eq!(tables_len(1022), 8 + 1363);
        assert_eq!(tables_len(1023), 16 + 1365);
        assert_eq!(tables_len(3 * 1022 + 100), 32 + 3 * 1363 + 134);
        for rows in 1..=3 * CHUNK_ROWS {
            let last = rows - (rows - 1) / CHUNK_ROWS * CHUNK_ROWS;
            assert!(4 * last <= 3 * chunk_len(last), "{rows} rows");
            assert_eq!(chunks(tables_len(rows)), rows.div_ceil(CHUNK_ROWS));
        }
        assert!(2 * tables_len(100_000) <= 27 * 100_000 / 10);
    }

    #[test]
    fn keys_that_differ_by_trailing_zeros_hash_apart() {
        assert_ne!(slot_hash(b"a"), slot_hash(b"a\0"));
        assert_ne!(slot_hash(b""), slot_hash(b"\0"));
        assert_ne!(slot_hash(b"user0000"), slot_hash(b"user0000\0"));
    }

    #[test]
    fn every_row_is_found_by_its_key_and_no_other_key_is() {
        for rows in [1, 16, 1021, 1022, 1023, 2500] {
            let arena = arena(rows);
            let tables = tables_of(&arena);
            assert_eq!(tables.0.len(), tables_len(rows));
            let used = tables.0[chunks(tables.0.len()) * PREFIX_WORDS..].iter();
            assert_eq!(used.filter(|&&s| s != 0).count(), rows);
            for (i, (key, _)) in arena.iter().enumerate() {
                assert_eq!(find(&tables, &arena, key), Some(i), "row {i} of {rows}");
                assert_eq!(
                    tables.prefix(i / CHUNK_ROWS),
                    key_prefix(arena.key(i / CHUNK_ROWS * CHUNK_ROWS))
                );
                // A key just above the row's sorts into its chunk, and
                // is not found.
                let above = [key, b"0"].concat();
                let chunk = tables.chunk_of(&arena, key_prefix(&above), &above);
                assert_eq!(chunk, Some(i / CHUNK_ROWS), "row {i} of {rows}");
                assert_eq!(find(&tables, &arena, &above), None, "row {i} of {rows}");
            }
            assert_eq!(tables.chunk_of(&arena, key_prefix(b"user"), b"user"), None);
            assert_eq!(find(&tables, &arena, b"zebra"), None);
        }
    }

    #[test]
    fn chunks_whose_first_keys_tie_on_the_prefix_are_told_apart_by_the_key() {
        // Every key shares its first 16 bytes, so every chunk's prefix is
        // the same and only the arena orders them.
        let mut arena = RowArena::default();
        for i in 0..3000 {
            let key = format!("user0000000000000{i:06}");
            arena.push(key.as_bytes(), Cell::tombstone(i as u64));
        }
        let tables = tables_of(&arena);
        for (i, (key, _)) in arena.iter().enumerate() {
            let chunk = tables.chunk_of(&arena, key_prefix(key), key);
            assert_eq!(chunk, Some(i / CHUNK_ROWS), "row {i}");
            assert_eq!(find(&tables, &arena, key), Some(i), "row {i}");
        }
    }

    #[test]
    fn an_empty_segment_holds_no_tables() {
        let tables = tables_of(&RowArena::default());
        assert!(tables.slots().is_empty());
        assert_eq!(tables.chunk_of(&RowArena::default(), 0, b""), None);
    }

    #[test]
    fn probes_wrap_past_the_end_of_a_chunk_table() {
        // Every row has a key whose first slot is the table's last one, so
        // all but the first run on from the table's start, in row order,
        // each with the key's tag.
        for rows in [16, 64, 1022] {
            let len = chunk_len(rows);
            let key = (0u32..)
                .map(|i| i.to_le_bytes())
                .find(|key| first_slot(slot_hash(key), len) == len - 1)
                .expect("a key");
            let mut fill = TableFill::new(rows);
            for _ in 0..rows {
                fill.push(&key);
            }
            let slots = &fill.finish().0[PREFIX_WORDS..];
            let tag = tag(slot_hash(&key));
            assert_eq!(slots[len - 1], tag | 1);
            let want: Vec<u16> = (2..=rows as u16).map(|r| tag | r).collect();
            assert_eq!(&slots[..rows - 1], want);
        }
    }
}
