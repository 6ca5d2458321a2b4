//! A counting global allocator for tests (not part of the real `bytes`
//! API): the system allocator plus a per-thread tally of what it was asked
//! for. Install it in a test binary with
//! `#[global_allocator] static A: Counting = Counting;` and measure a
//! closure with [`tally`].
//!
//! It lives in this crate because implementing `GlobalAlloc` takes `unsafe`,
//! and this is the workspace's one crate that allows it. The tally is per
//! thread, so tests running in parallel in one binary do not count each
//! other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What the allocator saw on one thread while counting was on there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    on: bool,
    /// Allocations (a `realloc` is one allocation and one free).
    pub allocs: usize,
    /// Frees.
    pub deallocs: usize,
    /// Bytes the allocations asked for.
    pub alloc_bytes: usize,
    /// Bytes the frees gave back.
    pub dealloc_bytes: usize,
    /// Bytes allocated less bytes freed: what the counted code still holds,
    /// negative when it freed more than it allocated.
    pub live_bytes: isize,
    /// The highest `live_bytes` reached (0 when it never rose above the
    /// start): the heap's high-water mark over the counted code.
    pub peak_bytes: usize,
    /// The layout of the last allocation.
    pub alloc_layout: Option<Layout>,
    /// The layout of the last free.
    pub dealloc_layout: Option<Layout>,
}

const IDLE: Tally = Tally {
    on: false,
    allocs: 0,
    deallocs: 0,
    alloc_bytes: 0,
    dealloc_bytes: 0,
    live_bytes: 0,
    peak_bytes: 0,
    alloc_layout: None,
    dealloc_layout: None,
};

thread_local! {
    static TALLY: Cell<Tally> = const { Cell::new(IDLE) };
}

fn record(f: impl FnOnce(&mut Tally)) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down. The tally has no destructor, so it allocates nothing here.
    let _ = TALLY.try_with(|cell| {
        let mut t = cell.get();
        if t.on {
            f(&mut t);
            cell.set(t);
        }
    });
}

/// Run `f` with this thread's counting on, and return what it allocated
/// and freed. Whatever `f` returns is dropped by the caller, uncounted.
pub fn tally<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    TALLY.with(|cell| cell.set(Tally { on: true, ..IDLE }));
    let r = f();
    let t = TALLY.with(|cell| cell.replace(IDLE));
    (r, Tally { on: false, ..t })
}

/// The system allocator plus the per-thread tally.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally touches no allocator state
// and allocates nothing. `alloc_zeroed` and `realloc` keep their default
// bodies, which go through these two.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(|t| {
            t.allocs += 1;
            t.alloc_bytes += layout.size();
            t.live_bytes += layout.size() as isize;
            t.peak_bytes = t.peak_bytes.max(t.live_bytes.max(0) as usize);
            t.alloc_layout = Some(layout);
        });
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(|t| {
            t.deallocs += 1;
            t.dealloc_bytes += layout.size();
            t.live_bytes -= layout.size() as isize;
            t.dealloc_layout = Some(layout);
        });
        // SAFETY: the caller guarantees `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
