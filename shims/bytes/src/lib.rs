//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to a crates registry, so the
//! workspace vendors the *exact API subset it uses* as a local crate with
//! the same name. Semantics match `bytes::Bytes` where the surfaces
//! overlap: an immutable, cheaply cloneable byte buffer backed by a shared
//! allocation (`Arc<[u8]>`), ordered and hashed like `[u8]` so it can key
//! ordered maps via `Borrow<[u8]>`.
//!
//! One method has no counterpart in the real crate: [`Bytes::prefetch`], a
//! cache hint for the buffer's reference count. Only this crate knows where
//! that count lives, so the hint lives here too.

#![warn(missing_docs)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer. `Clone` is O(1) — the
/// allocation is shared, never copied.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self {
            data: Arc::from(&[][..]),
        }
    }

    /// A buffer over static data (copied once into the shared allocation;
    /// the real crate borrows, which only changes constant factors here).
    pub fn from_static(data: &'static [u8]) -> Self {
        Self {
            data: Arc::from(data),
        }
    }

    /// Copy a slice into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self {
            data: Arc::from(data),
        }
    }

    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Hint the CPU to start loading the cache line that holds this
    /// buffer's reference count, so a `clone` or `drop` soon after does not
    /// stall on it. A clone's locked increment waits for its line on its
    /// own, one miss at a time; a prefetch issued early overlaps those
    /// misses. A hint only: it never faults and changes nothing observable.
    /// A no-op on targets other than x86-64.
    #[inline]
    #[allow(unsafe_code)]
    pub fn prefetch(&self) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // An `Arc` keeps its strong and weak counts in front of the data.
            let counts = Arc::as_ptr(&self.data)
                .cast::<u8>()
                .wrapping_sub(2 * std::mem::size_of::<usize>());
            // SAFETY: a prefetch reads nothing the program can observe and
            // never faults, whatever the address (it need not even be
            // mapped), so no pointer requirement applies; SSE, which
            // provides the instruction, is part of the x86-64 baseline.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(counts.cast::<i8>()) }
        }
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
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Self { data: v.into() }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Self {
            data: s.into_bytes().into(),
        }
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
    use std::collections::BTreeMap;

    #[test]
    fn clone_shares_the_allocation() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert!(std::ptr::eq(a.as_slice(), b.as_slice()));
    }

    #[test]
    fn btreemap_lookup_by_slice() {
        let mut m: BTreeMap<Bytes, u32> = BTreeMap::new();
        m.insert(Bytes::from(vec![b'k', b'1']), 7);
        assert_eq!(m.get(&b"k1"[..]), Some(&7));
        assert_eq!(m.get(&b"k2"[..]), None);
    }

    #[test]
    fn ordering_matches_slices() {
        let a = Bytes::from_static(b"abc");
        let b = Bytes::from_static(b"abd");
        assert!(a < b);
        assert_eq!(a, Bytes::copy_from_slice(b"abc"));
    }

    #[test]
    fn prefetch_is_only_a_hint() {
        for b in [Bytes::new(), Bytes::from(vec![1, 2, 3])] {
            let c = b.clone();
            b.prefetch();
            assert_eq!(b, c);
            assert!(std::ptr::eq(b.as_slice(), c.as_slice()));
        }
    }

    #[test]
    fn debug_escapes_non_printable() {
        let b = Bytes::from(vec![b'a', 0x00]);
        assert_eq!(format!("{b:?}"), "b\"a\\x00\"");
    }
}
