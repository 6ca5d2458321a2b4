//! A generational slab: dense, reusable storage for in-flight op contexts.
//!
//! The cluster models used to key per-op state by driver token in a
//! `HashMap<u64, Pending>` — one hash + probe per event touch, plus
//! rehash churn. A slab stores contexts in a `Vec` and hands out a
//! compact `OpKey` (slot index + generation) instead: lookups are a
//! bounds check and a generation compare, and freed slots are recycled
//! through a free list so steady-state dispatch allocates nothing.
//!
//! The generation makes stale keys safe: events that fire after their op
//! was answered or timed out (late replica acks, the op's own timeout)
//! carry a key whose generation no longer matches the slot, and `get`
//! returns `None` — exactly the semantics the `HashMap` miss used to
//! provide, without the possibility of slot-reuse aliasing.

/// A key into a [`Slab`]: low 32 bits slot index, high 32 bits generation.
///
/// Packed into a `u64` so cluster events can carry it where they used to
/// carry the driver token. Generation 0 is never issued, which reserves
/// [`OpKey::NONE`] (all zeros) as an explicit "no op" sentinel for
/// bookkeeping events (hinted handoff, read repair) that flow through the
/// same machinery without a pending op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpKey(pub u64);

impl OpKey {
    /// The "no pending op" sentinel; never returned by [`Slab::insert`].
    pub const NONE: OpKey = OpKey(0);

    #[inline]
    fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    #[inline]
    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    #[inline]
    fn pack(slot: u32, generation: u32) -> Self {
        OpKey(((generation as u64) << 32) | slot as u64)
    }

    /// True for the [`OpKey::NONE`] sentinel.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

#[derive(Debug, Clone)]
enum Slot<T> {
    /// Occupied at the stored generation.
    Full { generation: u32, value: T },
    /// Free; `next_free` chains the free list, `generation` is the one the
    /// slot will be reissued at.
    Free {
        generation: u32,
        next_free: Option<u32>,
    },
}

/// Dense generational storage. See the module docs for the design.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: Option<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free_head: None,
            len: 0,
        }
    }

    /// Store `value`, returning its key. Reuses a freed slot when one is
    /// available; the returned key's generation is always ≥ 1, so it never
    /// collides with [`OpKey::NONE`].
    pub fn insert(&mut self, value: T) -> OpKey {
        self.insert_with(|_| value)
    }

    /// [`Slab::insert`] for a value that holds its own key, or that is built
    /// from things created under it (the events an op schedules for itself):
    /// `make` is handed the key the value will be stored at.
    pub fn insert_with(&mut self, make: impl FnOnce(OpKey) -> T) -> OpKey {
        if let Some(slot) = self.free_head {
            let s = &mut self.slots[slot as usize];
            let Slot::Free {
                generation,
                next_free,
            } = *s
            else {
                unreachable!("free list points at a full slot")
            };
            let key = OpKey::pack(slot, generation);
            *s = Slot::Full {
                generation,
                value: make(key),
            };
            self.free_head = next_free;
            self.len += 1;
            key
        } else {
            // A real bound, not an invariant: 2^32 live slots would alias
            // keys, so overflowing is a bug worth stopping on.
            #[allow(clippy::expect_used)]
            let slot = u32::try_from(self.slots.len()).expect("slab slot overflow");
            let key = OpKey::pack(slot, 1);
            self.slots.push(Slot::Full {
                generation: 1,
                value: make(key),
            });
            self.len += 1;
            key
        }
    }

    /// The value at `key`, or `None` if it was removed (or the key is the
    /// NONE sentinel / from a recycled slot).
    #[inline]
    pub fn get(&self, key: OpKey) -> Option<&T> {
        match self.slots.get(key.slot()) {
            Some(Slot::Full { generation, value }) if *generation == key.generation() => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Mutable access to the value at `key`, with the same staleness rules
    /// as [`Slab::get`].
    #[inline]
    pub fn get_mut(&mut self, key: OpKey) -> Option<&mut T> {
        match self.slots.get_mut(key.slot()) {
            Some(Slot::Full { generation, value }) if *generation == key.generation() => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Remove and return the value at `key`; `None` if already gone. The
    /// slot's generation is bumped so outstanding copies of `key` go stale.
    pub fn remove(&mut self, key: OpKey) -> Option<T> {
        let slot = key.slot();
        match self.slots.get_mut(slot) {
            Some(s @ Slot::Full { .. }) => {
                let generation = match s {
                    Slot::Full { generation, .. } => *generation,
                    Slot::Free { .. } => unreachable!(),
                };
                if generation != key.generation() {
                    return None;
                }
                // Wrapping is fine: a key would have to survive 2^32
                // reuses of its slot to alias, far beyond any run length.
                let next_gen = generation.wrapping_add(1).max(1);
                let old = std::mem::replace(
                    s,
                    Slot::Free {
                        generation: next_gen,
                        next_free: self.free_head,
                    },
                );
                self.free_head = Some(slot as u32);
                self.len -= 1;
                match old {
                    Slot::Full { value, .. } => Some(value),
                    Slot::Free { .. } => unreachable!(),
                }
            }
            _ => None,
        }
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.get(a), None);
        assert_eq!(s.remove(a), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn stale_key_goes_dead_on_slot_reuse() {
        let mut s = Slab::new();
        let a = s.insert(1);
        s.remove(a);
        let b = s.insert(2);
        // Same slot, new generation.
        assert_ne!(a, b);
        assert_eq!(s.get(a), None);
        assert_eq!(s.get_mut(a), None);
        assert_eq!(s.remove(a), None);
        assert_eq!(s.get(b), Some(&2));
    }

    #[test]
    fn none_sentinel_never_resolves() {
        let mut s: Slab<i32> = Slab::new();
        assert!(OpKey::NONE.is_none());
        assert_eq!(s.get(OpKey::NONE), None);
        let k = s.insert(7);
        assert!(!k.is_none());
        assert_eq!(s.get(OpKey::NONE), None);
        assert_eq!(s.remove(OpKey::NONE), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn free_list_recycles_slots() {
        let mut s = Slab::new();
        let keys: Vec<_> = (0..100).map(|i| s.insert(i)).collect();
        for k in &keys {
            s.remove(*k);
        }
        assert!(s.is_empty());
        for i in 0..100 {
            s.insert(i);
        }
        // All inserts reused freed slots — no growth beyond the first 100.
        assert_eq!(s.slots.len(), 100);
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut s = Slab::new();
        let k = s.insert(vec![1, 2]);
        s.get_mut(k).unwrap().push(3);
        assert_eq!(s.get(k), Some(&vec![1, 2, 3]));
    }
}
