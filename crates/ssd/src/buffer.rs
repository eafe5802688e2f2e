//! The SSD controller's DRAM write buffer.
//!
//! Incoming writes are acknowledged as soon as their pages are *admitted* to
//! the buffer (§3.4: "an SSD encloses a small DRAM write buffer and stores
//! user data in the buffer first before flushing it in a batch to the actual
//! NAND"). Pages stay resident — and serve read hits — until their program
//! operation completes on the NAND, at which point the space is released.
//!
//! The buffer tracks multiplicity per logical page: overlapping writes to the
//! same LPN each hold a unit of space until their respective programs retire,
//! which keeps accounting exact without modeling coalescing.

use gimbal_sim::collections::DetMap;

/// DRAM write buffer occupancy tracker.
#[derive(Debug)]
pub(crate) struct WriteBuffer {
    capacity_pages: u64,
    occupied_pages: u64,
    resident: DetMap<u64, u32>,
}

impl WriteBuffer {
    /// Create a buffer holding `capacity_pages` logical pages.
    pub(crate) fn new(capacity_pages: u64) -> Self {
        assert!(capacity_pages > 0);
        WriteBuffer {
            capacity_pages,
            occupied_pages: 0,
            resident: DetMap::new(),
        }
    }

    /// Whether `pages` more pages fit right now.
    pub(crate) fn has_space(&self, pages: u64) -> bool {
        self.occupied_pages + pages <= self.capacity_pages
    }

    /// Admit one logical page. Caller must have checked [`Self::has_space`].
    pub(crate) fn admit(&mut self, lpn: u64) {
        debug_assert!(self.has_space(1), "admitting into a full buffer");
        self.occupied_pages += 1;
        *self.resident.get_or_insert_with(lpn, || 0) += 1;
    }

    /// Whether a logical page is resident (read hit).
    pub(crate) fn contains(&self, lpn: u64) -> bool {
        self.resident.contains_key(&lpn)
    }

    /// Release one unit of a logical page after its program completes.
    pub(crate) fn release(&mut self, lpn: u64) {
        #[expect(
            clippy::panic,
            reason = "acquire/release pairing is a device-internal invariant; no tenant command reaches here unpaired"
        )]
        let count = self
            .resident
            .get_mut(&lpn)
            .unwrap_or_else(|| panic!("releasing non-resident lpn {lpn}"));
        *count -= 1;
        if *count == 0 {
            self.resident.remove(&lpn);
        }
        debug_assert!(self.occupied_pages > 0);
        self.occupied_pages -= 1;
    }
}

#[cfg(test)]
impl WriteBuffer {
    /// Pages currently occupied.
    pub(crate) fn occupied(&self) -> u64 {
        self.occupied_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_release_cycle() {
        let mut b = WriteBuffer::new(4);
        assert!(b.has_space(4));
        b.admit(10);
        b.admit(11);
        assert_eq!(b.occupied(), 2);
        assert!(b.contains(10));
        assert!(!b.contains(12));
        b.release(10);
        assert!(!b.contains(10));
        assert_eq!(b.occupied(), 1);
    }

    #[test]
    fn fills_up() {
        let mut b = WriteBuffer::new(2);
        b.admit(0);
        b.admit(1);
        assert!(!b.has_space(1));
        b.release(0);
        assert!(b.has_space(1));
    }

    #[test]
    fn multiplicity_counts() {
        let mut b = WriteBuffer::new(8);
        b.admit(5);
        b.admit(5);
        assert_eq!(b.occupied(), 2);
        b.release(5);
        assert!(b.contains(5), "one unit still resident");
        b.release(5);
        assert!(!b.contains(5));
        assert_eq!(b.occupied(), 0);
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn release_unknown_panics() {
        let mut b = WriteBuffer::new(2);
        b.release(9);
    }
}
