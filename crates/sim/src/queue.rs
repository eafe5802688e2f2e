//! The event queue at the heart of the discrete-event simulator.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, E)` pairs ordered by time.
//! Events scheduled for the same instant pop in **insertion order** (a
//! monotonically increasing sequence number breaks ties), which makes the
//! simulation fully deterministic even when many events collide on one
//! timestamp — a common situation when components schedule "immediately".
//!
//! Internally the queue is a **hierarchical timer wheel** in the radix-heap
//! formulation: 11 levels of 64 slots, 6 bits of the nanosecond timestamp per
//! level, covering the full `u64` range with no overflow list. An entry lives
//! at the level of the highest bit in which its timestamp differs from the
//! wheel origin (`elapsed`, which tracks the causality watermark), so the
//! common short-horizon events of a self-clocked simulation land at level 0
//! and pop in O(1); far-future entries cascade down level by level as the
//! origin advances past their upper digits. Draining a level-0 slot sorts the
//! slot by sequence number, which restores global FIFO order for same-instant
//! events regardless of how many cascades they rode through — the wheel
//! reproduces the exact `(time, seq)` pop order of the binary heap it
//! replaced. That heap survives in `tests/properties.rs` as the equivalence
//! oracle the wheel is tested against.
//!
//! Storage is one slab per queue: every wheel entry sits in a `Link` cell
//! of a single `Vec`, and each slot holds only the head and tail index of its
//! cell list. A push takes a cell from the free list (or grows the slab), a
//! cascade re-links cells into lower slots without moving them, and a level-0
//! drain moves the entries out into the staged batch and returns the cells to
//! the free list. The slab's length is therefore the peak number of entries
//! the wheel held at once, and a queue in steady state stops allocating.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Bits of the timestamp consumed per wheel level.
const BITS: usize = 6;
/// Slots per level (`2^BITS`).
const SLOTS_PER_LEVEL: usize = 64;
/// Levels needed to cover a full `u64` of nanoseconds (`ceil(64 / 6)`).
const LEVELS: usize = 11;
/// Mask of one level's digit.
const SLOT_MASK: u64 = (SLOTS_PER_LEVEL as u64) - 1;
/// End of a slot list or of the free list.
const NIL: u32 = u32::MAX;
/// Most cells one slab may hold: indices stay below `u32::MAX - 1`, so they
/// never reach [`NIL`].
const MAX_LINKS: usize = (u32::MAX - 1) as usize;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

/// One slab cell: a pending wheel entry threaded onto its slot's list by
/// `next`, or a free cell (`event: None`) threaded onto the free list.
struct Link<E> {
    at: SimTime,
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// First and last cell of one slot's list. Meaningful only while the slot's
/// occupancy bit is set.
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

/// The wheel level of timestamp `at` relative to the wheel origin: the index
/// of the 6-bit digit holding the highest bit where they differ (0 when they
/// agree, i.e. the entry is due now).
#[inline]
fn level_of(at: u64, origin: u64) -> usize {
    let diff = at ^ origin;
    if diff == 0 {
        0
    } else {
        (63 - diff.leading_zeros() as usize) / BITS
    }
}

/// The index a new cell gets in a slab that holds `len` cells. Panics rather
/// than let an index wrap into [`NIL`].
#[inline]
fn next_link_index(len: usize) -> u32 {
    assert!(
        len < MAX_LINKS,
        "EventQueue slab is full: more than {MAX_LINKS} events pending in the wheel"
    );
    len as u32
}

/// A deterministic min-priority queue of timestamped events.
///
/// ```
/// use gimbal_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_micros(5), "later");
/// q.push(SimTime::from_micros(1), "first");
/// q.push(SimTime::from_micros(5), "even later"); // same instant: FIFO
///
/// assert_eq!(q.pop(), Some((SimTime::from_micros(1), "first")));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(5), "later")));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(5), "even later")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// The slab: every entry filed in the wheel lives in one of these cells.
    /// It never shrinks, so its length is the peak wheel population.
    links: Vec<Link<E>>,
    /// Head of the free-cell list, [`NIL`] when every cell is in use.
    free: u32,
    /// `LEVELS * SLOTS_PER_LEVEL` slot lists, level-major: two `u32`s of
    /// metadata per slot, whatever the slot has ever held.
    slots: Vec<Slot>,
    /// One bit per slot and level; the lowest set bit of the lowest non-zero
    /// level is the next slot to drain.
    occupancy: [u64; LEVELS],
    /// Entries at the earliest pending instant, already in seq (FIFO) order.
    /// Same-instant pushes append here directly, which keeps the order exact
    /// without re-sorting.
    current: VecDeque<Entry<E>>,
    /// Wheel origin in nanoseconds. Every pending entry is `>= elapsed`, and
    /// an entry at level L shares all digits above L with `elapsed`. Equal to
    /// the watermark whenever the queue is at rest between pops.
    elapsed: u64,
    len: usize,
    next_seq: u64,
    /// Timestamp of the most recently popped event; pushes earlier than this
    /// indicate a causality bug and panic in debug builds.
    watermark: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            links: Vec::new(),
            free: NIL,
            slots: vec![
                Slot {
                    head: NIL,
                    tail: NIL
                };
                LEVELS * SLOTS_PER_LEVEL
            ],
            occupancy: [0; LEVELS],
            current: VecDeque::new(),
            elapsed: 0,
            len: 0,
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Schedule `event` to fire at instant `at`.
    ///
    /// Scheduling in the past (before the last popped timestamp) is a
    /// causality violation; it panics in debug builds and is clamped to the
    /// watermark in release builds.
    pub fn push(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.watermark,
            "event scheduled at {at} before current time {}",
            self.watermark
        );
        let at = at.max(self.watermark);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let entry = Entry { at, seq, event };
        if let Some(front) = self.current.front() {
            if at == front.at {
                // Same instant as the staged batch: the monotone seq keeps
                // the deque sorted.
                self.current.push_back(entry);
                return;
            }
            if at < front.at {
                // Only reachable through a declined [`Self::pop_if_at`] at a
                // future instant (contract violation, debug-asserted there);
                // keep release builds correct by slotting the entry into the
                // staged batch in (time, seq) order.
                let pos = self
                    .current
                    .iter()
                    .position(|e| e.at > at)
                    .unwrap_or(self.current.len());
                self.current.insert(pos, entry);
                return;
            }
        }
        let link = Link {
            at,
            seq,
            next: NIL,
            event: Some(entry.event),
        };
        let idx = if self.free == NIL {
            let idx = next_link_index(self.links.len());
            self.links.push(link);
            idx
        } else {
            let idx = self.free;
            let cell = &mut self.links[idx as usize];
            self.free = cell.next;
            *cell = link;
            idx
        };
        self.file(idx);
    }

    /// Remove and return the earliest event, advancing the causality watermark.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            if let Some(e) = self.current.pop_front() {
                self.len -= 1;
                self.watermark = e.at;
                self.elapsed = self.elapsed.max(e.at.as_nanos());
                return Some((e.at, e.event));
            }
            if !self.load_next_batch() {
                return None;
            }
        }
    }

    /// Pop the head event only if it is due exactly at `at` **and** `pred`
    /// accepts it; otherwise leave the queue untouched and return `None`.
    ///
    /// This is the batching hook: an engine handling an event at `now` can
    /// coalesce the immediately-following same-instant events without
    /// re-entering its dispatch loop. Callers must only pass the instant they
    /// are currently processing (`at == now`); declining at a *future*
    /// instant would let later pushes land before the staged batch, which is
    /// a causality error (debug-asserted in [`Self::push`]).
    pub fn pop_if_at<F: FnOnce(&E) -> bool>(&mut self, at: SimTime, pred: F) -> Option<E> {
        if self.peek_time() != Some(at) {
            return None;
        }
        if self.current.is_empty() && !self.load_next_batch() {
            return None;
        }
        let front = self.current.front()?;
        if front.at != at || !pred(&front.event) {
            return None;
        }
        let e = self.current.pop_front()?;
        self.len -= 1;
        self.watermark = e.at;
        self.elapsed = self.elapsed.max(e.at.as_nanos());
        Some(e.event)
    }

    /// The instant of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(front) = self.current.front() {
            return Some(front.at);
        }
        let (level, slot) = self.lowest_occupied()?;
        if level == 0 {
            // A level-0 slot holds exactly one absolute instant.
            return Some(SimTime::from_nanos(
                (self.elapsed & !SLOT_MASK) | slot as u64,
            ));
        }
        // The global minimum lives in this slot; scan its list.
        let mut cur = self.slots[level * SLOTS_PER_LEVEL + slot].head;
        let mut min = None;
        while cur != NIL {
            let link = &self.links[cur as usize];
            min = Some(min.map_or(link.at, |m: SimTime| m.min(link.at)));
            cur = link.next;
        }
        min
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current simulation watermark (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.watermark
    }

    /// Lowest non-empty (level, slot), i.e. where the next batch drains from.
    fn lowest_occupied(&self) -> Option<(usize, usize)> {
        self.occupancy
            .iter()
            .enumerate()
            .find(|(_, &occ)| occ != 0)
            .map(|(level, &occ)| (level, occ.trailing_zeros() as usize))
    }

    /// Link cell `idx` at the tail of its slot relative to the current origin.
    fn file(&mut self, idx: u32) {
        let at = self.links[idx as usize].at.as_nanos();
        let level = level_of(at, self.elapsed);
        let slot = ((at >> (level * BITS)) & SLOT_MASK) as usize;
        self.links[idx as usize].next = NIL;
        let list = &mut self.slots[level * SLOTS_PER_LEVEL + slot];
        if self.occupancy[level] & (1 << slot) == 0 {
            self.occupancy[level] |= 1 << slot;
            *list = Slot {
                head: idx,
                tail: idx,
            };
        } else {
            let tail = std::mem::replace(&mut list.tail, idx);
            self.links[tail as usize].next = idx;
        }
    }

    /// Stage the earliest pending instant's entries into `current`, in seq
    /// order, cascading upper levels down as needed. Returns `false` when
    /// the wheel is empty. On success the origin sits exactly at the staged
    /// instant. Only called with `current` empty.
    fn load_next_batch(&mut self) -> bool {
        loop {
            let Some((level, slot)) = self.lowest_occupied() else {
                return false;
            };
            let mut cur = self.slots[level * SLOTS_PER_LEVEL + slot].head;
            self.occupancy[level] &= !(1u64 << slot);
            if level == 0 {
                // This slot is a single instant: move its entries out, free
                // their cells, and sort by seq to undo any interleaving that
                // cascades introduced.
                self.elapsed = (self.elapsed & !SLOT_MASK) | slot as u64;
                while cur != NIL {
                    let link = &mut self.links[cur as usize];
                    let next = link.next;
                    if let Some(event) = link.event.take() {
                        self.current.push_back(Entry {
                            at: link.at,
                            seq: link.seq,
                            event,
                        });
                    }
                    link.next = self.free;
                    self.free = cur;
                    cur = next;
                }
                self.current
                    .make_contiguous()
                    .sort_unstable_by_key(|e| e.seq);
                return true;
            }
            // Cascade: the global minimum lives in this slot, so the origin
            // may jump to the slot's first instant (digit `level` := slot,
            // lower digits zeroed). Every cell re-links strictly below
            // `level` relative to the new origin, in list order.
            let shift = level * BITS;
            let keep_above = u64::MAX.checked_shl((shift + BITS) as u32).unwrap_or(0);
            self.elapsed = (self.elapsed & keep_above) | ((slot as u64) << shift);
            while cur != NIL {
                let next = self.links[cur as usize].next;
                self.file(cur);
                cur = next;
            }
        }
    }
}

#[cfg(test)]
impl<E> EventQueue<E> {
    /// Drop all pending events without firing them.
    pub(crate) fn clear(&mut self) {
        self.links.clear();
        self.free = NIL;
        self.occupancy = [0; LEVELS];
        self.current.clear();
        self.len = 0;
        // The origin may have run ahead of the watermark while a batch was
        // staged; rewind so post-clear pushes (>= watermark) place correctly.
        self.elapsed = self.watermark.as_nanos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn watermark_tracks_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(7));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    #[cfg(debug_assertions)]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), ());
        q.pop();
        q.push(SimTime::from_micros(5), ());
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_micros(3), 'a');
        q.push(SimTime::from_micros(1), 'b');
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(1)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_deterministic() {
        // Simulates a self-clocked workload: each pop schedules a successor.
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 0u32);
        let mut seen = Vec::new();
        while let Some((t, id)) = q.pop() {
            seen.push(id);
            if seen.len() >= 50 {
                break;
            }
            q.push(t + SimDuration::from_nanos(u64::from(id % 3)), id + 1);
        }
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_and_overflow_cascades_pop_in_order() {
        // One entry per wheel level, including the top (bit 63) digits, plus
        // the absolute maximum timestamp: every cascade path gets exercised.
        let mut q = EventQueue::new();
        let mut times: Vec<u64> = (0..11).map(|lvl| 1u64 << (6 * lvl)).collect();
        times.push(u64::MAX);
        times.push(u64::MAX - 1);
        times.push(0);
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        times.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.as_nanos())).collect();
        assert_eq!(popped, times);
        assert_eq!(q.now(), SimTime::from_nanos(u64::MAX));
    }

    #[test]
    fn same_instant_fifo_survives_cascades() {
        // Two batches at the same far-future instant, pushed on either side
        // of an interleaved near-term pop: the cascade must not reorder them.
        let far = SimTime::from_millis(77);
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(far, i);
        }
        q.push(SimTime::from_nanos(5), 100);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), 100)));
        for i in 10..20 {
            q.push(far, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn pop_if_at_takes_matching_head_only() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(2);
        q.push(t, 1u32);
        q.push(t, 2u32);
        q.push(SimTime::from_micros(3), 3u32);
        // Wrong instant: untouched.
        assert_eq!(q.pop_if_at(SimTime::from_micros(1), |_| true), None);
        // Predicate declines: untouched.
        assert_eq!(q.pop_if_at(t, |&e| e == 9), None);
        assert_eq!(q.pop_if_at(t, |&e| e == 1), Some(1));
        assert_eq!(q.pop_if_at(t, |&e| e == 2), Some(2));
        // Head moved to a later instant: declined.
        assert_eq!(q.pop_if_at(t, |_| true), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_micros(3), 3)));
    }

    #[test]
    fn slab_holds_no_more_cells_than_the_peak_pending_set() {
        // Bursts spread over levels 0-4 (ns to ~0.5 s ahead), each
        // drained halfway before the next lands: cells freed by level-0
        // drains must be reused, and cascades must not copy cells.
        let mut q = EventQueue::new();
        let mut rng = crate::SimRng::new(0x51AB);
        let mut peak = 0;
        let mut capacity_after_first_round = 0;
        for round in 0..6 {
            for burst in 0..8 {
                let now = q.now();
                for i in 0..500u64 {
                    let horizon = 1u64 << (6 * (i % 5) + rng.gen_below(6));
                    q.push(now + SimDuration::from_nanos(rng.gen_below(horizon)), i);
                    peak = peak.max(q.len());
                }
                let keep = if burst == 7 { 0 } else { q.len() / 2 };
                while q.len() > keep {
                    q.pop();
                }
                assert!(
                    q.links.len() <= peak,
                    "round {round} burst {burst}: {} cells for a peak of {peak} pending",
                    q.links.len()
                );
            }
            assert!(q.is_empty());
            if round == 0 {
                capacity_after_first_round = q.links.capacity();
            }
        }
        assert!(peak > 500, "bursts must overlap (peak {peak})");
        assert_eq!(
            q.links.capacity(),
            capacity_after_first_round,
            "rounds of the same shape must not grow the slab"
        );
    }

    #[test]
    fn slab_index_stops_short_of_the_list_terminator() {
        assert_eq!(next_link_index(0), 0);
        assert_eq!(next_link_index(MAX_LINKS - 1), u32::MAX - 2);
    }

    #[test]
    #[should_panic(expected = "EventQueue slab is full")]
    fn slab_growth_past_the_index_space_panics() {
        // Checked on the index computation: filling a real slab to 2^32
        // cells would take hundreds of GB.
        next_link_index(MAX_LINKS);
    }
}
