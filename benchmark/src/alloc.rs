//! A counting global allocator: exact heap-allocation counts for the
//! deterministic `allocs_per_op` / `alloc_bytes_per_op` metrics.
//!
//! Every `alloc`, `alloc_zeroed` and `realloc` bumps one call counter and
//! adds the requested size to one byte counter (a `realloc` counts as one
//! allocation of the *new* size; frees are not counted). The counters are
//! process-wide statistics that publish no other data, hence `Relaxed`.
//! The simulator is deterministic and the benchmark host is
//! single-threaded, so the delta across one repetition repeats exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two counters.
pub struct Counting;

#[inline]
fn note(size: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator (that
        // is, from `System`) with `layout`, and that `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and bytes requested so far (or between two readings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl Counts {
    /// The process-wide totals right now.
    pub fn now() -> Self {
        Self {
            calls: CALLS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
        }
    }

    /// What was allocated since `earlier`.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_with_capacity_is_one_allocation_of_its_byte_size() {
        const N: usize = 1_000;
        // The counters are process-wide and the test harness has threads of
        // its own. Interference only ever adds, so the smallest delta over a
        // few tries is the allocation itself.
        let mut least = Counts {
            calls: u64::MAX,
            bytes: u64::MAX,
        };
        for _ in 0..32 {
            let before = Counts::now();
            let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(N));
            let d = Counts::now().since(before);
            drop(v);
            least.calls = least.calls.min(d.calls);
            least.bytes = least.bytes.min(d.bytes);
        }
        assert_eq!(least.calls, 1);
        assert_eq!(least.bytes, (N * std::mem::size_of::<u64>()) as u64);
    }
}
