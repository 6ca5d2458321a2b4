//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to a crates registry, so the
//! workspace vendors the *exact API subset it uses* as a local crate with
//! the same name. Semantics match `bytes::Bytes` where the surfaces
//! overlap: an immutable, cheaply cloneable byte buffer backed by a shared
//! allocation, ordered and hashed like `[u8]` so it can key ordered maps via
//! `Borrow<[u8]>`. One addition, `Bytes::get_mut`, follows `Arc::get_mut`:
//! the only handle to a buffer may rewrite its bytes in place.
//!
//! A `Bytes` is one pointer wide. It points at a single allocation laid out
//! as `[count | len | bytes]`: the same size and alignment an `Arc<[u8]>`
//! of that length requests, but the length lives behind the pointer instead
//! of beside it, so every key, value, row and message that holds one is 8
//! bytes smaller. The reference count follows `std::sync::Arc`'s protocol.
//! This crate holds the workspace's only `unsafe` code: `Bytes`, and the
//! [`counting`] allocator that tests install to count allocations.

#![warn(missing_docs)]
#![allow(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

use std::alloc::{self, Layout};
use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{self, AtomicUsize, Ordering};

pub mod counting;

/// The front of every buffer's allocation; the data bytes follow it.
#[repr(C)]
struct Header {
    /// Live handles to this allocation.
    count: AtomicUsize,
    /// Data bytes after the header. Never changes.
    len: usize,
}

/// The allocation for `len` data bytes: a header, then the bytes, padded to
/// the header's alignment. `Arc<[u8]>` computes its `ArcInner` layout the
/// same way, so both request the same size per buffer.
fn layout(len: usize) -> Layout {
    match Layout::array::<u8>(len).and_then(|data| Layout::new::<Header>().extend(data)) {
        Ok((layout, offset)) => {
            debug_assert_eq!(offset, std::mem::size_of::<Header>());
            layout.pad_to_align()
        }
        Err(_) => panic!("a {len}-byte buffer does not fit the address space"),
    }
}

/// Handles beyond this many would let the count overflow; `Arc` aborts at
/// the same bound.
const MAX_COUNT: usize = isize::MAX as usize;

/// A reference-counted byte buffer, immutable while shared. `Clone` is
/// O(1) — the allocation is shared, never copied — and the only handle
/// can rewrite its bytes in place ([`Bytes::get_mut`]).
pub struct Bytes {
    /// Always points at a live allocation made by `copy_from_slice` with
    /// `layout(len)`, whose header and data are initialised; this handle
    /// holds one of its counts.
    ptr: NonNull<Header>,
}

// SAFETY: `Bytes` shares immutable bytes and an atomic count, as `Arc<[u8]>`
// does, which is `Send` and `Sync`. `len` is written only before the first
// handle exists; the data then, and later only through `get_mut`, which
// needs the only handle, as `Arc::get_mut` does. The count changes only
// atomically, and `drop` frees only after an `Acquire` fence that orders
// every other handle's uses (each ended by a `Release` decrement) before
// the free.
unsafe impl Send for Bytes {}
// SAFETY: as for `Send`: `&Bytes` allows only reads and atomic count updates.
unsafe impl Sync for Bytes {}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::copy_from_slice(&[])
    }

    /// A buffer over static data (copied once into the shared allocation;
    /// the real crate borrows, which only changes constant factors here).
    pub fn from_static(data: &'static [u8]) -> Self {
        Self::copy_from_slice(data)
    }

    /// Copy a slice into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        let layout = layout(data.len());
        // SAFETY: `layout` is never zero-sized: it holds at least a header.
        let raw = unsafe { alloc::alloc(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<Header>()) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: `ptr` is a fresh allocation of `layout`, aligned for
        // `Header`, with room for the header and then `data.len()` bytes
        // at `Self::data`'s offset; a fresh allocation overlaps no slice.
        unsafe {
            ptr.as_ptr().write(Header {
                count: AtomicUsize::new(1),
                len: data.len(),
            });
            std::ptr::copy_nonoverlapping(data.as_ptr(), Self::data(ptr), data.len());
        }
        Self { ptr }
    }

    /// Where the data bytes of the allocation at `ptr` start.
    fn data(ptr: NonNull<Header>) -> *mut u8 {
        ptr.as_ptr().wrapping_add(1).cast::<u8>()
    }

    fn header(&self) -> &Header {
        // SAFETY: this handle keeps the allocation alive and its header was
        // initialised before the handle existed (see the `ptr` field).
        unsafe { self.ptr.as_ref() }
    }

    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: the allocation outlives `&self`, and `len` initialised
        // bytes follow its header; only `get_mut` writes them, through the
        // one handle, while it is borrowed mutably.
        unsafe { std::slice::from_raw_parts(Self::data(self.ptr), self.header().len) }
    }

    /// The bytes, writable, when this is the buffer's only handle; `None`
    /// while any clone is alive. The contract of `Arc::get_mut`: the
    /// `Acquire` load of a count of 1 pairs with the `Release` decrement
    /// of every dropped clone, so their reads happen before these writes.
    pub fn get_mut(&mut self) -> Option<&mut [u8]> {
        if self.header().count.load(Ordering::Acquire) != 1 {
            return None;
        }
        // SAFETY: a count of 1 is this handle, and `&mut self` stops it
        // being cloned while the slice lives, so no other reference to the
        // bytes exists until the borrow ends; the allocation holds `len`
        // initialised bytes after its header.
        Some(unsafe { std::slice::from_raw_parts_mut(Self::data(self.ptr), self.header().len) })
    }
}

impl Clone for Bytes {
    fn clone(&self) -> Self {
        // `Relaxed`, as in `Arc::clone`: a new handle is made only from a
        // live one, which already keeps the allocation alive, and the
        // increment publishes nothing.
        let old = self.header().count.fetch_add(1, Ordering::Relaxed);
        // A count this high means leaked handles; wrapping it would free
        // the buffer under live ones.
        if old > MAX_COUNT {
            std::process::abort();
        }
        Self { ptr: self.ptr }
    }
}

impl Drop for Bytes {
    fn drop(&mut self) {
        // `Release` orders this handle's uses of the buffer before the
        // decrement, so whichever handle frees it sees them all.
        if self.header().count.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // Pairs with every other handle's `Release` decrement.
        atomic::fence(Ordering::Acquire);
        let layout = layout(self.header().len);
        // SAFETY: the count reached zero, so this was the last handle and
        // nothing else can reach the allocation, which `copy_from_slice`
        // made with this same layout (`len` never changes).
        unsafe { alloc::dealloc(self.ptr.as_ptr().cast::<u8>(), layout) }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Self::copy_from_slice(&v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Self::copy_from_slice(s.as_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Self::from_static(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Self::copy_from_slice(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

// Hash must agree with `Borrow<[u8]>`: hash exactly like the slice.
impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_allocation() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert!(std::ptr::eq(a.as_slice(), b.as_slice()));
    }

    #[test]
    fn ordering_matches_slices() {
        let a = Bytes::from_static(b"abc");
        let b = Bytes::from_static(b"abd");
        assert!(a < b);
        assert_eq!(a, Bytes::copy_from_slice(b"abc"));
    }

    #[test]
    fn debug_escapes_non_printable() {
        let b = Bytes::from(vec![b'a', 0x00]);
        assert_eq!(format!("{b:?}"), "b\"a\\x00\"");
    }

    #[test]
    fn get_mut_needs_the_only_handle() {
        let mut a = Bytes::copy_from_slice(b"abc");
        assert_eq!(a.get_mut().map(|b| &*b), Some(&b"abc"[..]));
        let b = a.clone();
        assert!(a.get_mut().is_none());
        drop(b);
        assert!(a.get_mut().is_some());
    }

    #[test]
    fn get_mut_returns_once_a_clone_on_another_thread_is_dropped() {
        use std::sync::mpsc::channel;
        let mut a = Bytes::copy_from_slice(b"shared");
        let b = a.clone();
        let (holding, held) = channel();
        let (release, released) = channel();
        std::thread::scope(|s| {
            // Owned here, so a failed assert drops it and frees the thread.
            let release = release;
            s.spawn(move || {
                holding.send(()).expect("the test thread waits");
                released.recv().expect("the test thread releases");
                assert_eq!(b, b"shared"[..]);
            });
            held.recv().expect("the clone's thread started");
            assert!(a.get_mut().is_none(), "the other thread holds a clone");
            release.send(()).expect("the clone's thread waits");
        });
        // The scope joined the thread, which dropped its clone.
        assert!(a.get_mut().is_some());
    }

    #[test]
    fn a_write_through_get_mut_is_seen_by_a_later_clone() {
        let mut a = Bytes::copy_from_slice(b"user0");
        if let Some(bytes) = a.get_mut() {
            bytes[4] = b'7';
        }
        let b = a.clone();
        assert_eq!(b, b"user7"[..]);
        assert!(std::ptr::eq(a.as_slice(), b.as_slice()));
    }

    #[test]
    fn get_mut_on_an_empty_buffer_is_an_empty_slice() {
        let mut a = Bytes::new();
        assert_eq!(a.get_mut().map(|b| b.len()), Some(0));
        let b = a.clone();
        assert!(a.get_mut().is_none());
        drop(b);
        assert_eq!(a.get_mut().map(|b| b.len()), Some(0));
    }
}
