//! The hierarchical blob allocator (HBA, §4.3).
//!
//! Two levels: a **global** allocator divides each backend's capacity into
//! mega blobs (4 GB in the paper; scaled down by configuration here) and
//! tracks them with a bitmap; a **local** agent holds free lists of micro
//! blobs (256 KB) carved from allocated megas. A micro allocation is served
//! locally and only triggers the global level when the local pool for the
//! chosen backend is empty. Backend choice is load-aware: the caller passes
//! a scoring function (typically the credit view) and the allocator prefers
//! the highest-scoring backend that can serve the request.

use std::collections::VecDeque;

/// Identifies one remote SSD (a namespace behind some JBOF node).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BackendId(pub u32);

impl BackendId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A contiguous allocation on one backend. The paper's blob address is
/// `<NVMe transport identifier, start LBA, LBA amount, LBA sector size>`;
/// the sector size is globally 4 KiB in this model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlobAddr {
    /// The backend holding the blob.
    pub backend: BackendId,
    /// Starting LBA.
    pub lba: u64,
    /// Length in logical blocks.
    pub blocks: u64,
}

/// Allocator geometry.
#[derive(Clone, Copy, Debug)]
pub struct HbaConfig {
    /// Mega blob size in logical blocks (paper: 4 GB; default here 16 MiB
    /// to match the scaled-down SSDs).
    pub mega_blocks: u64,
    /// Micro blob size in logical blocks (paper: 256 KB = 64 blocks).
    pub micro_blocks: u64,
}

impl Default for HbaConfig {
    fn default() -> Self {
        HbaConfig {
            mega_blocks: 4096,
            micro_blocks: 64,
        }
    }
}

struct Backend {
    capacity_blocks: u64,
    mega_used: Vec<bool>,
    local_free: VecDeque<BlobAddr>,
}

/// The two-level allocator over a pool of backends.
pub struct HierarchicalAllocator {
    cfg: HbaConfig,
    backends: Vec<Backend>,
}

impl HierarchicalAllocator {
    /// Create an allocator over backends of the given capacities (blocks).
    pub fn new(cfg: HbaConfig, capacities: &[u64]) -> Self {
        assert!(cfg.micro_blocks > 0 && cfg.mega_blocks.is_multiple_of(cfg.micro_blocks));
        assert!(!capacities.is_empty());
        let backends = capacities
            .iter()
            .map(|&cap| {
                let megas = (cap / cfg.mega_blocks) as usize;
                assert!(megas > 0, "backend smaller than one mega blob");
                Backend {
                    capacity_blocks: cap,
                    mega_used: vec![false; megas],
                    local_free: VecDeque::new(),
                }
            })
            .collect();
        HierarchicalAllocator { cfg, backends }
    }

    /// Number of backends.
    pub(crate) fn backend_count(&self) -> usize {
        self.backends.len()
    }

    /// Micro blob size in blocks.
    pub(crate) fn micro_blocks(&self) -> u64 {
        self.cfg.micro_blocks
    }

    /// Free capacity (blocks) still allocatable on a backend.
    pub fn free_blocks(&self, b: BackendId) -> u64 {
        let be = &self.backends[b.index()];
        let free_megas = be.mega_used.iter().filter(|&&u| !u).count() as u64;
        free_megas * self.cfg.mega_blocks + be.local_free.len() as u64 * self.cfg.micro_blocks
    }

    /// Whether a backend can serve one more micro allocation.
    pub(crate) fn can_alloc(&self, b: BackendId) -> bool {
        let be = &self.backends[b.index()];
        !be.local_free.is_empty() || be.mega_used.iter().any(|&u| !u)
    }

    fn alloc_mega(&mut self, b: BackendId) -> bool {
        let cfg = self.cfg;
        let be = &mut self.backends[b.index()];
        let Some(idx) = be.mega_used.iter().position(|&u| !u) else {
            return false;
        };
        be.mega_used[idx] = true;
        let base = idx as u64 * cfg.mega_blocks;
        let micros = cfg.mega_blocks / cfg.micro_blocks;
        for m in 0..micros {
            be.local_free.push_back(BlobAddr {
                backend: b,
                lba: base + m * cfg.micro_blocks,
                blocks: cfg.micro_blocks,
            });
        }
        true
    }

    /// Allocate one micro blob on a specific backend.
    pub(crate) fn alloc_micro_on(&mut self, b: BackendId) -> Option<BlobAddr> {
        if self.backends[b.index()].local_free.is_empty() && !self.alloc_mega(b) {
            return None;
        }
        self.backends[b.index()].local_free.pop_front()
    }

    /// Allocate one micro blob on the highest-scoring backend (load-aware
    /// policy: "selecting the one with the maximum credit (i.e., the least
    /// load)"). `exclude` skips a backend (used for the shadow replica).
    pub(crate) fn alloc_micro<F: Fn(BackendId) -> f64>(
        &mut self,
        score: F,
        exclude: Option<BackendId>,
    ) -> Option<BlobAddr> {
        self.alloc_micro_where(score, |b| Some(b) != exclude)
    }

    /// [`Self::alloc_micro`] with an arbitrary eligibility predicate — the
    /// rack-scale shadow placement excludes the primary's entire *node*
    /// (fault-domain anti-affinity), not just its backend, so node death
    /// never takes both replicas of a micro with it.
    pub(crate) fn alloc_micro_where<F, P>(&mut self, score: F, eligible: P) -> Option<BlobAddr>
    where
        F: Fn(BackendId) -> f64,
        P: Fn(BackendId) -> bool,
    {
        // Ties on the load score (common right after startup, when every
        // backend reports the same credit) break toward the backend with
        // the most free space, which spreads data evenly instead of piling
        // everything onto one SSD.
        let best = (0..self.backends.len())
            .map(|i| BackendId(i as u32))
            .filter(|&b| eligible(b) && self.can_alloc(b))
            .max_by(|&a, &b| {
                score(a)
                    .partial_cmp(&score(b))
                    .unwrap()
                    .then_with(|| self.free_blocks(a).cmp(&self.free_blocks(b)))
            })?;
        self.alloc_micro_on(best)
    }

    /// Return a micro blob to its backend's local pool.
    pub(crate) fn free_micro(&mut self, addr: BlobAddr) {
        assert_eq!(addr.blocks, self.cfg.micro_blocks);
        assert!(addr.lba + addr.blocks <= self.backends[addr.backend.index()].capacity_blocks);
        self.backends[addr.backend.index()]
            .local_free
            .push_back(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hba(n_backends: usize) -> HierarchicalAllocator {
        // 4 megas of 4096 blocks per backend.
        HierarchicalAllocator::new(HbaConfig::default(), &vec![16384; n_backends])
    }

    #[test]
    fn micro_allocations_come_from_megas() {
        let mut a = hba(1);
        let m1 = a.alloc_micro_on(BackendId(0)).unwrap();
        let m2 = a.alloc_micro_on(BackendId(0)).unwrap();
        assert_eq!(m1.blocks, 64);
        assert_ne!(m1.lba, m2.lba);
        // One mega (4096 blocks) is now committed at the global level.
        assert_eq!(a.free_blocks(BackendId(0)), 16384 - 4096 + 4096 - 128);
    }

    #[test]
    fn mega_exhaustion_triggers_global_then_fails() {
        let mut a = hba(1);
        let total_micros = 16384 / 64;
        for _ in 0..total_micros {
            assert!(a.alloc_micro_on(BackendId(0)).is_some());
        }
        assert!(
            a.alloc_micro_on(BackendId(0)).is_none(),
            "capacity exhausted"
        );
        assert!(!a.can_alloc(BackendId(0)));
    }

    #[test]
    fn free_recycles() {
        let mut a = hba(1);
        let m = a.alloc_micro_on(BackendId(0)).unwrap();
        let before = a.free_blocks(BackendId(0));
        a.free_micro(m);
        assert_eq!(a.free_blocks(BackendId(0)), before + 64);
        // Full drain then refill works.
        let total = 16384 / 64;
        let all: Vec<_> = (0..total)
            .map(|_| a.alloc_micro_on(BackendId(0)).unwrap())
            .collect();
        assert!(a.alloc_micro_on(BackendId(0)).is_none());
        for m in all {
            a.free_micro(m);
        }
        assert!(a.alloc_micro_on(BackendId(0)).is_some());
    }

    #[test]
    fn load_aware_choice_prefers_high_score() {
        let mut a = hba(3);
        let scores = [1.0, 9.0, 3.0];
        let m = a.alloc_micro(|b| scores[b.index()], None).unwrap();
        assert_eq!(m.backend, BackendId(1));
        // Excluding the best falls back to the next.
        let m2 = a
            .alloc_micro(|b| scores[b.index()], Some(BackendId(1)))
            .unwrap();
        assert_eq!(m2.backend, BackendId(2));
    }

    #[test]
    fn predicate_exclusion_respects_fault_domains() {
        // Backends 0–1 are "node 0", 2–3 are "node 1"; excluding node 0
        // (the primary's fault domain) must land on node 1 even when node 0
        // scores higher.
        let mut a = hba(4);
        let scores = [9.0, 8.0, 2.0, 1.0];
        let m = a
            .alloc_micro_where(|b| scores[b.index()], |b| b.index() / 2 != 0)
            .unwrap();
        assert_eq!(m.backend, BackendId(2));
        // An unsatisfiable predicate is a clean None, not a panic.
        assert!(a.alloc_micro_where(|_| 1.0, |_| false).is_none());
    }

    #[test]
    fn distinct_lbas_across_all_allocations() {
        let mut a = hba(2);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let m = a.alloc_micro(|_| 1.0, None).unwrap();
            assert!(seen.insert((m.backend, m.lba)), "duplicate {m:?}");
        }
    }
}
