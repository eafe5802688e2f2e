//! Incarnation-tagged slab arena for per-IO state.
//!
//! The engines track every in-flight command in a record (`CmdTrack` in the
//! testbed, `Phys` in the rack) that used to be heap-allocated per IO inside
//! a map. At millions of IOs per run that is an allocation and a free on the
//! hot path for every command. [`IoArena`] recycles the records through a
//! free list instead: a freed slot is reused by the next allocation, and an
//! **incarnation counter** per slot — mirroring the cache's
//! incarnation-tagged lines — makes every [`IoHandle`] unique across the
//! slot's lifetimes. Accessing a slot through a stale handle (one whose
//! incarnation the slot has since outlived) is a *typed* error, never a
//! silent read of the next tenant's state.
//!
//! Determinism: slot assignment depends only on the alloc/free sequence
//! (LIFO free list), so a double run allocates identical handles. Iteration
//! over live records is never exposed — engines keep their own deterministic
//! index (`DetMap<id, IoHandle>`) and the arena is pure storage.

/// Handle to a live arena record: slot index plus the slot incarnation at
/// allocation time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IoHandle {
    index: u32,
    incarnation: u32,
}

impl IoHandle {
    /// The slot index (stable for the record's lifetime).
    pub fn index(self) -> u32 {
        self.index
    }
}

/// Typed access failure: the handle no longer names a live record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArenaError {
    /// The slot has been freed and reallocated since this handle was issued
    /// (handle incarnation < slot incarnation), or the handle predates a
    /// reset.
    Stale,
    /// The slot is currently on the free list: the record was freed and not
    /// yet reused.
    Vacant,
}

impl std::fmt::Display for ArenaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArenaError::Stale => write!(f, "stale arena handle (slot was recycled)"),
            ArenaError::Vacant => write!(f, "vacant arena slot (record already freed)"),
        }
    }
}

struct Slot<T> {
    /// Bumped on every free, so recycled slots never honor old handles.
    incarnation: u32,
    value: Option<T>,
}

/// A free-list slab of per-IO records keyed by incarnation.
pub struct IoArena<T> {
    slots: Vec<Slot<T>>,
    /// LIFO free list of slot indices (deterministic reuse order).
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for IoArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> IoArena<T> {
    /// Create an empty arena.
    pub fn new() -> Self {
        IoArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Store `value`, reusing the most recently freed slot if one exists.
    /// The returned handle is distinct from every handle ever issued for
    /// this arena (no ID aliasing while in flight).
    pub fn alloc(&mut self, value: T) -> IoHandle {
        self.live += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.value.is_none(), "free list pointed at a live slot");
            slot.value = Some(value);
            return IoHandle {
                index,
                incarnation: slot.incarnation,
            };
        }
        let index = u32::try_from(self.slots.len()).expect("arena exceeds u32 slots");
        self.slots.push(Slot {
            incarnation: 0,
            value: Some(value),
        });
        IoHandle {
            index,
            incarnation: 0,
        }
    }

    /// Release the record behind `h`, returning it and bumping the slot's
    /// incarnation so `h` (and any copy of it) goes stale immediately.
    pub fn free(&mut self, h: IoHandle) -> Result<T, ArenaError> {
        let slot = self.check(h)?;
        let value = slot.value.take().ok_or(ArenaError::Vacant)?;
        slot.incarnation = slot.incarnation.wrapping_add(1);
        self.live -= 1;
        self.free.push(h.index);
        Ok(value)
    }

    /// Shared access to a live record.
    pub fn get(&self, h: IoHandle) -> Result<&T, ArenaError> {
        let slot = self.slots.get(h.index as usize).ok_or(ArenaError::Stale)?;
        if slot.incarnation != h.incarnation {
            return Err(ArenaError::Stale);
        }
        slot.value.as_ref().ok_or(ArenaError::Vacant)
    }

    /// Exclusive access to a live record.
    pub fn get_mut(&mut self, h: IoHandle) -> Result<&mut T, ArenaError> {
        let slot = self.check(h)?;
        slot.value.as_mut().ok_or(ArenaError::Vacant)
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no records are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn check(&mut self, h: IoHandle) -> Result<&mut Slot<T>, ArenaError> {
        let slot = self
            .slots
            .get_mut(h.index as usize)
            .ok_or(ArenaError::Stale)?;
        if slot.incarnation != h.incarnation {
            return Err(ArenaError::Stale);
        }
        Ok(slot)
    }
}

#[cfg(test)]
impl<T> IoArena<T> {
    /// Total slots ever allocated (live + recyclable).
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_free_round_trip() {
        let mut a = IoArena::new();
        let h = a.alloc(41);
        *a.get_mut(h).expect("live") += 1;
        assert_eq!(a.get(h), Ok(&42));
        assert_eq!(a.len(), 1);
        assert_eq!(a.free(h), Ok(42));
        assert!(a.is_empty());
    }

    #[test]
    fn stale_handle_is_a_typed_error() {
        let mut a = IoArena::new();
        let h1 = a.alloc("first");
        a.free(h1).expect("live");
        let h2 = a.alloc("second");
        // Same slot, new incarnation: the old handle must not see the new
        // tenant's record.
        assert_eq!(h1.index(), h2.index());
        assert_ne!(h1, h2);
        assert_eq!(a.get(h1), Err(ArenaError::Stale));
        assert_eq!(a.free(h1), Err(ArenaError::Stale));
        assert_eq!(a.get(h2), Ok(&"second"));
    }

    #[test]
    fn double_free_is_a_typed_error() {
        let mut a = IoArena::new();
        let h = a.alloc(1u8);
        assert_eq!(a.free(h), Ok(1));
        // The incarnation bump makes a double free Stale, not Vacant — the
        // handle died with the record.
        assert_eq!(a.free(h), Err(ArenaError::Stale));
        assert_eq!(a.get(h), Err(ArenaError::Stale));
    }

    #[test]
    fn recycles_lifo_and_grows_when_drained() {
        let mut a = IoArena::new();
        let h0 = a.alloc(0);
        let h1 = a.alloc(1);
        assert_eq!((h0.index(), h1.index()), (0, 1));
        a.free(h0).expect("live");
        a.free(h1).expect("live");
        // LIFO reuse: last freed comes back first, deterministically.
        let h2 = a.alloc(2);
        let h3 = a.alloc(3);
        assert_eq!((h2.index(), h3.index()), (1, 0));
        let h4 = a.alloc(4);
        assert_eq!(h4.index(), 2);
        assert_eq!(a.capacity(), 3);
        assert_eq!(a.len(), 3);
    }
}
