//! The I/O-plan contract between the storage engine and the simulator.
//!
//! Storage operations are computed functionally and report what they *would*
//! have done to a disk. The database layers translate each [`IoPlan`] into
//! simulated disk/CPU time on the owning node. Keeping this a plain data
//! structure keeps `storage` free of any simulation dependency and makes the
//! plans directly assertable in tests.

/// One unit of I/O performed by a storage operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoOp {
    /// Served from the memtable; no device access. Also the default — the
    /// zero-cost filler for [`IoPlan`]'s unused inline slots.
    #[default]
    MemtableHit,
    /// Served from the block cache; no device access.
    CacheHit {
        /// Bytes read from cache (for CPU-cost accounting).
        bytes: u64,
    },
    /// A random disk read: one positioning cost plus a transfer.
    DiskRead {
        /// Bytes transferred.
        bytes: u64,
    },
    /// A sequential disk read (follow-on blocks of a scan or compaction).
    DiskSeqRead {
        /// Bytes transferred.
        bytes: u64,
    },
    /// A bloom-filter check that skipped a table (CPU only; recorded so
    /// tests can assert bloom effectiveness).
    BloomSkip,
}

/// Ops recorded inline before spilling to the heap. A point read touches at
/// most one op per run plus the memtable, and steady-state run counts sit
/// below the size-tiered `min_threshold` bucket width, so plans of hot
/// operations never allocate.
const INLINE_OPS: usize = 12;

/// An ordered record of the I/O a storage operation performed.
///
/// Storage is on the per-event hot path of both cluster models and a plan is
/// built for *every* replica read, so the op list is a small inline buffer
/// that spills to a `Vec` only for long scans and compactions — the common
/// point read records its ops without touching the allocator.
#[derive(Debug, Clone, Default)]
pub struct IoPlan {
    inline: [IoOp; INLINE_OPS],
    len: usize,
    spill: Vec<IoOp>,
}

impl PartialEq for IoPlan {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}
impl Eq for IoPlan {}

impl IoPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one I/O op.
    pub fn push(&mut self, op: IoOp) {
        if self.len < INLINE_OPS {
            self.inline[self.len] = op;
        } else {
            self.spill.push(op);
        }
        self.len += 1;
    }

    /// Append all ops from another plan.
    #[cfg(test)]
    pub(crate) fn extend(&mut self, other: IoPlan) {
        for op in other.iter() {
            self.push(*op);
        }
    }

    /// Number of recorded ops.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The recorded ops in execution order.
    pub fn iter(&self) -> impl Iterator<Item = &IoOp> {
        self.inline[..self.len.min(INLINE_OPS)]
            .iter()
            .chain(self.spill.iter())
    }

    /// Number of random disk reads (each pays a positioning cost).
    #[cfg(test)]
    pub(crate) fn random_reads(&self) -> u32 {
        self.iter()
            .filter(|o| matches!(o, IoOp::DiskRead { .. }))
            .count() as u32
    }

    /// Total bytes that must come off the disk (random + sequential reads).
    #[cfg(test)]
    pub(crate) fn disk_read_bytes(&self) -> u64 {
        self.iter()
            .map(|o| match o {
                IoOp::DiskRead { bytes } | IoOp::DiskSeqRead { bytes } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Bytes served from the block cache.
    #[cfg(test)]
    pub(crate) fn cache_hit_bytes(&self) -> u64 {
        self.iter()
            .map(|o| match o {
                IoOp::CacheHit { bytes } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Count of bloom-filter skips.
    #[cfg(test)]
    pub(crate) fn bloom_skips(&self) -> u32 {
        self.iter().filter(|o| matches!(o, IoOp::BloomSkip)).count() as u32
    }

    /// True when the operation never left memory.
    #[cfg(test)]
    pub(crate) fn is_memory_only(&self) -> bool {
        self.disk_read_bytes() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_by_kind() {
        let mut p = IoPlan::new();
        p.push(IoOp::MemtableHit);
        p.push(IoOp::CacheHit { bytes: 100 });
        p.push(IoOp::DiskRead { bytes: 4096 });
        p.push(IoOp::DiskSeqRead { bytes: 8192 });
        p.push(IoOp::BloomSkip);
        assert_eq!(p.random_reads(), 1);
        assert_eq!(p.disk_read_bytes(), 4096 + 8192);
        assert_eq!(p.cache_hit_bytes(), 100);
        assert_eq!(p.bloom_skips(), 1);
        assert!(!p.is_memory_only());
    }

    #[test]
    fn memory_only_detection() {
        let mut p = IoPlan::new();
        p.push(IoOp::MemtableHit);
        p.push(IoOp::CacheHit { bytes: 64 });
        assert!(p.is_memory_only());
    }

    #[test]
    fn extend_concatenates_in_order() {
        let mut a = IoPlan::new();
        a.push(IoOp::MemtableHit);
        let mut b = IoPlan::new();
        b.push(IoOp::BloomSkip);
        a.extend(b);
        let ops: Vec<IoOp> = a.iter().copied().collect();
        assert_eq!(ops, vec![IoOp::MemtableHit, IoOp::BloomSkip]);
    }

    #[test]
    fn spills_past_inline_capacity() {
        let mut p = IoPlan::new();
        for i in 0..40u64 {
            p.push(IoOp::DiskSeqRead { bytes: i });
        }
        assert_eq!(p.len(), 40);
        let ops: Vec<IoOp> = p.iter().copied().collect();
        assert_eq!(ops.len(), 40);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(*op, IoOp::DiskSeqRead { bytes: i as u64 });
        }
        assert_eq!(p.disk_read_bytes(), (0..40).sum::<u64>());

        // Equality compares logical op sequences, not representation.
        let mut q = IoPlan::new();
        for i in 0..40u64 {
            q.push(IoOp::DiskSeqRead { bytes: i });
        }
        assert_eq!(p, q);
        q.push(IoOp::BloomSkip);
        assert_ne!(p, q);
    }
}
