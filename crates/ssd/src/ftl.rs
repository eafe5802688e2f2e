//! Page-mapped flash translation layer.
//!
//! The FTL is purely *logical*: it maps logical pages to physical slots,
//! tracks per-block validity, selects GC victims greedily, and reports how
//! much copy work a collection implies. All *timing* (tR/tPROG/tBERS, die
//! occupancy) lives in `crate::device`; this separation keeps the FTL
//! exhaustively unit-testable.
//!
//! Physical layout: `die → block → NAND page → slot`, where a slot holds one
//! 4 KiB logical page. A global *slot index* linearizes the hierarchy; a
//! global *block index* is `die * blocks_per_die + local_block`.

use crate::config::SsdConfig;
use gimbal_sim::SimRng;

/// Sentinel for "unmapped" in both mapping directions.
const UNMAPPED: u32 = u32::MAX;

/// State of an erase block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BlockState {
    /// Erased and available.
    Free,
    /// Currently accepting appends (host or GC writes).
    Open,
    /// Fully programmed.
    Full,
}

/// Where a write physically landed, in units the device can time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotAddr {
    /// Die index.
    pub die: u32,
    /// Global block index.
    pub block: u32,
    /// NAND page within the block.
    pub nand_page: u32,
    /// Slot within the NAND page.
    pub slot: u32,
}

/// Copy work implied by collecting a victim block; its valid logical pages
/// go to the buffer passed to [`Ftl::gc_work_into`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GcWork {
    /// The victim block (global index).
    pub block: u32,
    /// Die the victim lives on.
    pub die: u32,
    /// NAND pages that must be read (pages containing ≥1 valid slot).
    pub nand_reads: u32,
}

/// Running FTL counters (WA numerator/denominator etc.).
#[derive(Clone, Copy, Debug, Default)]
pub struct FtlCounters {
    /// Logical pages written on behalf of the host.
    pub host_slot_writes: u64,
    /// Logical pages copied by garbage collection.
    pub gc_slot_writes: u64,
    /// Blocks erased.
    pub erases: u64,
    /// GC victim collections performed.
    pub collections: u64,
}

impl FtlCounters {
    /// Write amplification factor observed so far (≥ 1.0 once the host has
    /// written anything).
    pub(crate) fn write_amplification(&self) -> f64 {
        if self.host_slot_writes == 0 {
            1.0
        } else {
            (self.host_slot_writes + self.gc_slot_writes) as f64 / self.host_slot_writes as f64
        }
    }
}

struct OpenBlock {
    /// Global block index.
    block: u32,
    /// Next slot ordinal within the block (0..slots_per_block).
    next_slot: u32,
}

/// The page-mapped FTL.
pub struct Ftl {
    // Geometry (copied out of SsdConfig so the FTL is self-contained).
    dies: u32,
    blocks_per_die: u32,
    slots_per_block: u32,
    slots_per_nand_page: u32,
    logical_pages: u64,

    /// logical page → global slot index.
    map: Vec<u32>,
    /// global slot index → logical page.
    rmap: Vec<u32>,
    /// per global block: number of valid slots.
    valid: Vec<u16>,
    /// per global block: state.
    state: Vec<BlockState>,
    /// per die: stack of free local block ids.
    free: Vec<Vec<u32>>,
    /// per die: open block receiving host writes.
    open_host: Vec<Option<OpenBlock>>,
    /// per die: open block receiving GC copies.
    open_gc: Vec<Option<OpenBlock>>,

    counters: FtlCounters,
}

impl Ftl {
    /// Create an FTL with all blocks free and nothing mapped.
    pub fn new(cfg: &SsdConfig) -> Self {
        cfg.validate();
        let dies = cfg.dies();
        let blocks_per_die = cfg.blocks_per_die();
        let total_blocks = (dies * blocks_per_die) as usize;
        let slots_per_block = cfg.slots_per_block();
        let total_slots = total_blocks * slots_per_block as usize;
        Ftl {
            dies,
            blocks_per_die,
            slots_per_block,
            slots_per_nand_page: cfg.slots_per_nand_page(),
            logical_pages: cfg.logical_pages(),
            map: vec![UNMAPPED; cfg.logical_pages() as usize],
            rmap: vec![UNMAPPED; total_slots],
            valid: vec![0; total_blocks],
            state: vec![BlockState::Free; total_blocks],
            free: (0..dies)
                .map(|_| (0..blocks_per_die).rev().collect())
                .collect(),
            open_host: (0..dies).map(|_| None).collect(),
            open_gc: (0..dies).map(|_| None).collect(),
            counters: FtlCounters::default(),
        }
    }

    /// Running counters.
    pub(crate) fn counters(&self) -> FtlCounters {
        self.counters
    }

    #[inline]
    fn slots_per_die(&self) -> u32 {
        self.blocks_per_die * self.slots_per_block
    }

    #[inline]
    fn slot_index(&self, die: u32, local_block: u32, slot_in_block: u32) -> u32 {
        die * self.slots_per_die() + local_block * self.slots_per_block + slot_in_block
    }

    /// Decompose a global slot index into an address.
    pub(crate) fn addr_of(&self, slot_idx: u32) -> SlotAddr {
        let die = slot_idx / self.slots_per_die();
        let rem = slot_idx % self.slots_per_die();
        let local_block = rem / self.slots_per_block;
        let slot_in_block = rem % self.slots_per_block;
        SlotAddr {
            die,
            block: die * self.blocks_per_die + local_block,
            nand_page: slot_in_block / self.slots_per_nand_page,
            slot: slot_in_block % self.slots_per_nand_page,
        }
    }

    /// Look up the physical location of a logical page, if mapped.
    pub fn translate(&self, lpn: u64) -> Option<SlotAddr> {
        let m = self.map[lpn as usize];
        if m == UNMAPPED {
            None
        } else {
            Some(self.addr_of(m))
        }
    }

    /// Whether a logical page is mapped.
    pub(crate) fn is_mapped(&self, lpn: u64) -> bool {
        self.map[lpn as usize] != UNMAPPED
    }

    /// Invalidate a logical page's current mapping (on overwrite or trim).
    pub fn invalidate(&mut self, lpn: u64) {
        let m = self.map[lpn as usize];
        if m != UNMAPPED {
            self.map[lpn as usize] = UNMAPPED;
            self.rmap[m as usize] = UNMAPPED;
            let block = (m / self.slots_per_block) as usize;
            debug_assert!(self.valid[block] > 0);
            self.valid[block] -= 1;
        }
    }

    /// Free block count on a die.
    pub fn free_blocks(&self, die: u32) -> u32 {
        self.free[die as usize].len() as u32
    }

    fn take_free_block(&mut self, die: u32) -> u32 {
        #[expect(
            clippy::panic,
            reason = "GC watermark maintenance guarantees a free block; exhaustion means the FTL model itself is broken"
        )]
        let local = self.free[die as usize]
            .pop()
            .unwrap_or_else(|| panic!("die {die} out of free blocks: GC watermark too low"));
        let global = die * self.blocks_per_die + local;
        debug_assert_eq!(self.state[global as usize], BlockState::Free);
        self.state[global as usize] = BlockState::Open;
        global
    }

    /// Append-write a logical page onto `die`. Returns the physical address
    /// and whether a **new NAND page** was started (the device charges
    /// program time per program-unit, not per slot).
    ///
    /// `for_gc` selects the GC open block so GC copies and host writes don't
    /// mix block lifetimes (standard hot/cold separation).
    pub fn write_to_die(&mut self, lpn: u64, die: u32, for_gc: bool) -> SlotAddr {
        self.invalidate(lpn);
        let open = if for_gc {
            &mut self.open_gc[die as usize]
        } else {
            &mut self.open_host[die as usize]
        };
        // Close a full open block.
        if let Some(ob) = open {
            if ob.next_slot == self.slots_per_block {
                self.state[ob.block as usize] = BlockState::Full;
                *open = None;
            }
        }
        if open.is_none() {
            let block = self.take_free_block(die);
            let slot = if for_gc {
                &mut self.open_gc[die as usize]
            } else {
                &mut self.open_host[die as usize]
            };
            *slot = Some(OpenBlock {
                block,
                next_slot: 0,
            });
        }
        let ob = if for_gc {
            self.open_gc[die as usize].as_mut().unwrap()
        } else {
            self.open_host[die as usize].as_mut().unwrap()
        };
        let local_block = ob.block % self.blocks_per_die;
        let slot_in_block = ob.next_slot;
        ob.next_slot += 1;
        let block = ob.block;
        let idx = self.slot_index(die, local_block, slot_in_block);
        self.map[lpn as usize] = idx;
        self.rmap[idx as usize] = lpn as u32;
        self.valid[block as usize] += 1;
        if for_gc {
            self.counters.gc_slot_writes += 1;
        } else {
            self.counters.host_slot_writes += 1;
        }
        self.addr_of(idx)
    }

    /// Greedily pick the Full block with the fewest valid slots on `die`.
    /// Fully-valid blocks are never victims: collecting one reclaims zero
    /// space while consuming a whole block of GC writes, so it can neither
    /// help nor terminate.
    pub fn pick_victim(&self, die: u32) -> Option<u32> {
        let base = die * self.blocks_per_die;
        (base..base + self.blocks_per_die)
            .filter(|&b| {
                self.state[b as usize] == BlockState::Full
                    && u32::from(self.valid[b as usize]) < self.slots_per_block
            })
            .min_by_key(|&b| self.valid[b as usize])
    }

    /// Slots still appendable on `die` without taking a new free block
    /// (space left in the host open block).
    pub(crate) fn host_open_space(&self, die: u32) -> u32 {
        match &self.open_host[die as usize] {
            Some(ob) => self.slots_per_block - ob.next_slot,
            None => 0,
        }
    }

    /// Describe the copy work for collecting `block` (which must be Full),
    /// replacing `valid_lpns` with the logical pages that must be rewritten.
    /// Does not modify state; the device calls [`Ftl::write_to_die`] for each
    /// valid page and then [`Ftl::erase`].
    pub fn gc_work_into(&self, block: u32, valid_lpns: &mut Vec<u32>) -> GcWork {
        debug_assert_eq!(self.state[block as usize], BlockState::Full);
        let die = block / self.blocks_per_die;
        let local = block % self.blocks_per_die;
        let base = self.slot_index(die, local, 0);
        valid_lpns.clear();
        let mut nand_reads = 0u32;
        let mut page_has_valid = false;
        for s in 0..self.slots_per_block {
            if s % self.slots_per_nand_page == 0 {
                if page_has_valid {
                    nand_reads += 1;
                }
                page_has_valid = false;
            }
            let lpn = self.rmap[(base + s) as usize];
            if lpn != UNMAPPED {
                valid_lpns.push(lpn);
                page_has_valid = true;
            }
        }
        if page_has_valid {
            nand_reads += 1;
        }
        GcWork {
            block,
            die,
            nand_reads,
        }
    }

    /// Erase a block (all its slots must already be invalid) and return it to
    /// the die's free pool.
    pub fn erase(&mut self, block: u32) {
        assert_eq!(
            self.valid[block as usize], 0,
            "erasing block {block} with valid data"
        );
        let die = block / self.blocks_per_die;
        let local = block % self.blocks_per_die;
        // Clear residual reverse mappings (already UNMAPPED if invalidated).
        let base = self.slot_index(die, local, 0) as usize;
        for s in 0..self.slots_per_block as usize {
            self.rmap[base + s] = UNMAPPED;
        }
        self.state[block as usize] = BlockState::Free;
        self.free[die as usize].push(local);
        self.counters.erases += 1;
    }

    /// Record a completed collection (for WA accounting).
    pub(crate) fn note_collection(&mut self) {
        self.counters.collections += 1;
    }

    // ------------------------------------------------------------------
    // Preconditioning (§5.1: "Clean-SSD, pre-conditioned with 128KB
    // sequential writes; Fragment-SSD, pre-conditioned with 4KB random
    // writes for multiple hours").
    // ------------------------------------------------------------------

    /// Precondition as a *clean* drive: every logical page mapped, written in
    /// sequential stripe order so consecutive LBAs sit on consecutive dies
    /// in program-unit-sized runs — exactly what the drain path produces for
    /// a large sequential write.
    ///
    /// `stripe_slots` is the number of consecutive logical pages placed on
    /// one die before moving to the next (the device passes its program
    /// batch size).
    pub(crate) fn precondition_clean(&mut self, stripe_slots: u32) {
        assert!(stripe_slots >= 1);
        self.reset_unmapped();
        for lpn in 0..self.logical_pages {
            let die = ((lpn / u64::from(stripe_slots)) % u64::from(self.dies)) as u32;
            self.write_to_die(lpn, die, false);
        }
        // Preconditioning is setup, not measured work.
        self.counters = FtlCounters::default();
    }

    /// Precondition as a heavily *fragmented* drive: every logical page
    /// mapped to a uniformly random slot, dead (invalidated) slots
    /// interspersed so blocks sit at a valid ratio of roughly
    /// `logical / physical-in-use`, and only `free_per_die` blocks left free.
    /// This is the steady state hours of 4 KiB random overwrites converge to.
    pub(crate) fn precondition_fragmented(&mut self, free_per_die: u32, rng: &mut SimRng) {
        assert!(free_per_die >= 1 && free_per_die < self.blocks_per_die);
        self.reset_unmapped();
        let usable_blocks_per_die = self.blocks_per_die - free_per_die;
        let slots_in_use = u64::from(self.dies)
            * u64::from(usable_blocks_per_die)
            * u64::from(self.slots_per_block);
        assert!(
            slots_in_use >= self.logical_pages,
            "not enough physical slots to precondition"
        );
        // Shuffle logical pages among in-use slots; remainder become dead.
        let mut fill: Vec<u32> = (0..slots_in_use)
            .map(|i| {
                if i < self.logical_pages {
                    i as u32
                } else {
                    UNMAPPED
                }
            })
            .collect();
        rng.shuffle(&mut fill);
        let mut i = 0usize;
        for die in 0..self.dies {
            for _ in 0..usable_blocks_per_die {
                let block = self.take_free_block(die);
                let local = block % self.blocks_per_die;
                for s in 0..self.slots_per_block {
                    let lpn = fill[i];
                    i += 1;
                    if lpn != UNMAPPED {
                        let idx = self.slot_index(die, local, s);
                        self.map[lpn as usize] = idx;
                        self.rmap[idx as usize] = lpn;
                        self.valid[block as usize] += 1;
                    }
                }
                self.state[block as usize] = BlockState::Full;
            }
        }
        self.counters = FtlCounters::default();
    }

    fn reset_unmapped(&mut self) {
        self.map.iter_mut().for_each(|m| *m = UNMAPPED);
        self.rmap.iter_mut().for_each(|m| *m = UNMAPPED);
        self.valid.iter_mut().for_each(|v| *v = 0);
        self.state.iter_mut().for_each(|s| *s = BlockState::Free);
        for (die, f) in self.free.iter_mut().enumerate() {
            *f = (0..self.blocks_per_die).rev().collect();
            let _ = die;
        }
        self.open_host.iter_mut().for_each(|o| *o = None);
        self.open_gc.iter_mut().for_each(|o| *o = None);
    }
}

#[cfg(test)]
impl Ftl {
    /// Valid-slot count of a block (test/inspection helper).
    pub(crate) fn block_valid(&self, block: u32) -> u16 {
        self.valid[block as usize]
    }

    /// State of a block (test/inspection helper).
    pub(crate) fn block_state(&self, block: u32) -> BlockState {
        self.state[block as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SsdConfig {
        SsdConfig {
            logical_capacity: 256 * 1024 * 1024, // small keeps tests fast
            ..SsdConfig::default()
        }
    }

    #[test]
    fn write_then_translate() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        let a = ftl.write_to_die(7, 3, false);
        assert_eq!(a.die, 3);
        let t = ftl.translate(7).unwrap();
        assert_eq!(t, a);
        assert!(ftl.is_mapped(7));
        assert!(!ftl.is_mapped(8));
    }

    #[test]
    fn overwrite_invalidates_old_slot() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        let a = ftl.write_to_die(7, 0, false);
        let b = ftl.write_to_die(7, 0, false);
        assert_ne!(a, b);
        assert_eq!(ftl.translate(7).unwrap(), b);
        // First slot's block lost a valid count.
        assert_eq!(ftl.block_valid(a.block), 1); // only b remains valid in it
    }

    #[test]
    fn blocks_fill_and_close() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        let spb = cfg.slots_per_block() as u64;
        let first = ftl.write_to_die(0, 0, false).block;
        for lpn in 1..spb {
            ftl.write_to_die(lpn, 0, false);
        }
        // Block is logically full; next write opens a new one.
        let next = ftl.write_to_die(spb, 0, false).block;
        assert_ne!(first, next);
        assert_eq!(ftl.block_state(first), BlockState::Full);
        assert_eq!(ftl.block_valid(first), spb as u16);
    }

    #[test]
    fn victim_selection_is_greedy() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        let spb = cfg.slots_per_block() as u64;
        // Fill two blocks on die 0.
        for lpn in 0..2 * spb {
            ftl.write_to_die(lpn, 0, false);
        }
        // Invalidate most of the first block.
        for lpn in 0..spb - 3 {
            ftl.invalidate(lpn);
        }
        let victim = ftl.pick_victim(0).unwrap();
        assert_eq!(ftl.block_valid(victim), 3);
    }

    #[test]
    fn gc_work_counts_pages_and_lpns() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        let spb = cfg.slots_per_block() as u64;
        for lpn in 0..spb {
            ftl.write_to_die(lpn, 0, false);
        }
        ftl.write_to_die(spb, 0, false); // close the first block
        ftl.invalidate(1); // fully-valid blocks are never victims
        let victim = ftl.pick_victim(0).unwrap();
        // Invalidate all but slots 0 and 5 (same vs different NAND pages).
        for lpn in 1..spb {
            if lpn != 5 {
                ftl.invalidate(lpn);
            }
        }
        let mut lpns = Vec::new();
        let work = ftl.gc_work_into(victim, &mut lpns);
        assert_eq!(lpns, vec![0, 5]);
        // slot 0 → NAND page 0, slot 5 → NAND page 1 (4 slots/page).
        assert_eq!(work.nand_reads, 2);
        assert_eq!(work.die, 0);
    }

    #[test]
    fn erase_returns_block_to_free_pool() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        let spb = cfg.slots_per_block() as u64;
        let before = ftl.free_blocks(0);
        for lpn in 0..=spb {
            ftl.write_to_die(lpn, 0, false);
        }
        for lpn in 0..spb {
            ftl.invalidate(lpn);
        }
        let victim = ftl.pick_victim(0).unwrap();
        assert_eq!(ftl.block_valid(victim), 0);
        ftl.erase(victim);
        assert_eq!(ftl.block_state(victim), BlockState::Free);
        assert_eq!(ftl.free_blocks(0), before - 1); // one still open
        assert_eq!(ftl.counters().erases, 1);
    }

    #[test]
    #[should_panic(expected = "valid data")]
    fn erase_rejects_valid_blocks() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        let spb = cfg.slots_per_block() as u64;
        for lpn in 0..=spb {
            ftl.write_to_die(lpn, 0, false);
        }
        ftl.invalidate(0); // one invalid slot makes it a legal victim…
        let victim = ftl.pick_victim(0).unwrap();
        ftl.erase(victim); // …but erasing with 63 valid slots must panic
    }

    #[test]
    fn fully_valid_blocks_are_never_victims() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        let spb = cfg.slots_per_block() as u64;
        for lpn in 0..=spb {
            ftl.write_to_die(lpn, 0, false);
        }
        assert_eq!(ftl.pick_victim(0), None, "collecting it reclaims nothing");
        ftl.invalidate(3);
        assert!(ftl.pick_victim(0).is_some());
        assert!(ftl.host_open_space(0) > 0);
    }

    #[test]
    fn clean_precondition_maps_everything_striped() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        ftl.precondition_clean(cfg.slots_per_program());
        for lpn in (0..cfg.logical_pages()).step_by(997) {
            assert!(ftl.is_mapped(lpn), "lpn {lpn} unmapped");
        }
        // Consecutive program-unit runs land on consecutive dies.
        let sp = u64::from(cfg.slots_per_program());
        let d0 = ftl.translate(0).unwrap().die;
        let d1 = ftl.translate(sp).unwrap().die;
        assert_eq!((d0 + 1) % cfg.dies(), d1);
        // Within a run, same die.
        assert_eq!(ftl.translate(1).unwrap().die, d0);
        assert_eq!(ftl.counters().host_slot_writes, 0, "counters reset");
    }

    #[test]
    fn fragmented_precondition_has_dead_space_and_low_free() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        let mut rng = SimRng::new(42);
        ftl.precondition_fragmented(cfg.gc_low_watermark, &mut rng);
        for lpn in (0..cfg.logical_pages()).step_by(991) {
            assert!(ftl.is_mapped(lpn));
        }
        for die in 0..cfg.dies() {
            assert_eq!(ftl.free_blocks(die), cfg.gc_low_watermark);
        }
        // Mean valid ratio of full blocks should be well below 1.
        let total_blocks = cfg.dies() * cfg.blocks_per_die();
        let (mut full, mut valid) = (0u64, 0u64);
        for b in 0..total_blocks {
            if ftl.block_state(b) == BlockState::Full {
                full += 1;
                valid += u64::from(ftl.block_valid(b));
            }
        }
        let ratio = valid as f64 / (full * u64::from(cfg.slots_per_block())) as f64;
        // Expected ratio follows from geometry: logical pages spread over all
        // non-free blocks.
        let usable = u64::from(cfg.dies())
            * u64::from(cfg.blocks_per_die() - cfg.gc_low_watermark)
            * u64::from(cfg.slots_per_block());
        let expected = cfg.logical_pages() as f64 / usable as f64;
        assert!(
            (ratio - expected).abs() < 0.03,
            "fragmented valid ratio {ratio} vs expected {expected}"
        );
        assert!(ratio < 0.95, "must leave dead space, ratio {ratio}");
        // Victims exist and are below the mean (variance exists).
        let v = ftl.pick_victim(0).unwrap();
        assert!(f64::from(ftl.block_valid(v)) < ratio * f64::from(cfg.slots_per_block()));
    }

    #[test]
    fn fragmented_translations_are_scattered_across_dies() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        let mut rng = SimRng::new(7);
        ftl.precondition_fragmented(cfg.gc_low_watermark, &mut rng);
        // 32 consecutive logical pages (a 128 KB IO) should hit many dies but
        // with collisions — i.e. not a perfect stripe.
        let dies: Vec<u32> = (0..32).map(|l| ftl.translate(l).unwrap().die).collect();
        let mut uniq = dies.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() > 8, "should scatter: {uniq:?}");
        assert!(uniq.len() < 32, "collisions expected: {uniq:?}");
    }

    #[test]
    fn wa_counter() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        ftl.write_to_die(0, 0, false);
        ftl.write_to_die(1, 0, true);
        let c = ftl.counters();
        assert_eq!(c.host_slot_writes, 1);
        assert_eq!(c.gc_slot_writes, 1);
        assert_eq!(c.write_amplification(), 2.0);
    }
}
