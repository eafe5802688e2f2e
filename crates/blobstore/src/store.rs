//! Files over replicated micro blobs, and IO planning.
//!
//! A file is a sequence of micro-blob *pairs*: a primary and a shadow copy
//! on distinct backends (§4.3's replication for flash-failure tolerance).
//! Writes fan out to both copies and are "completed only when the two
//! writes finish"; reads go to one replica, chosen by the caller (the
//! credit-based load balancer).

use crate::allocator::{BackendId, BlobAddr, HierarchicalAllocator};
use crate::error::BlobError;
use gimbal_fabric::IoType;
use gimbal_sim::collections::DetMap;

/// A blobstore file handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u64);

/// One block IO the engine must execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoPlan {
    /// Target backend.
    pub backend: BackendId,
    /// Starting LBA on that backend.
    pub lba: u64,
    /// Length in blocks.
    pub blocks: u64,
    /// Opcode.
    pub op: IoType,
}

struct File {
    /// `[primary, shadow]` micro pairs, in file order. With replication
    /// disabled the shadow equals the primary.
    micros: Vec<[BlobAddr; 2]>,
    size_blocks: u64,
}

/// The blobstore: file namespace + allocation + IO planning.
pub struct Blobstore {
    alloc: HierarchicalAllocator,
    files: DetMap<FileId, File>,
    next_file: u64,
    replicate: bool,
}

impl Blobstore {
    /// Create a store over `alloc`. `replicate` enables primary+shadow
    /// pairs, which requires ≥ 2 backends — fewer is a configuration error
    /// surfaced to the caller, not a panic.
    pub fn new(alloc: HierarchicalAllocator, replicate: bool) -> Result<Self, BlobError> {
        if replicate && alloc.backend_count() < 2 {
            return Err(BlobError::NeedTwoBackends {
                backends: alloc.backend_count(),
            });
        }
        Ok(Blobstore {
            alloc,
            files: DetMap::new(),
            next_file: 0,
            replicate,
        })
    }

    /// Access the allocator (for capacity inspection).
    pub fn allocator(&self) -> &HierarchicalAllocator {
        &self.alloc
    }

    /// Create a file of `blocks` logical blocks. `score` is the load-aware
    /// backend preference (credit view). Returns `None` when the pool is
    /// out of space.
    pub fn create_file<F: Fn(BackendId) -> f64>(
        &mut self,
        blocks: u64,
        score: F,
    ) -> Option<FileId> {
        self.create_file_zoned(blocks, score, |b| b.index() as u32)
    }

    /// [`Self::create_file`] with explicit fault domains: `zone_of` maps a
    /// backend to its rack node, and each micro's shadow is forced onto a
    /// *different node* than the primary (falling back to a different
    /// backend on the same node only when no other node has space). With
    /// the default identity zoning every backend is its own domain and this
    /// is exactly the single-node `create_file`.
    pub fn create_file_zoned<F, Z>(&mut self, blocks: u64, score: F, zone_of: Z) -> Option<FileId>
    where
        F: Fn(BackendId) -> f64,
        Z: Fn(BackendId) -> u32,
    {
        let micro = self.alloc.micro_blocks();
        let n = blocks.div_ceil(micro).max(1);
        let mut micros = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let primary = self.alloc.alloc_micro(&score, None)?;
            let shadow = if self.replicate {
                let pzone = zone_of(primary.backend);
                match self
                    .alloc
                    .alloc_micro_where(&score, |b| zone_of(b) != pzone)
                {
                    Some(s) => s,
                    // No foreign-node space left: degrade to same-node,
                    // different-backend placement rather than failing the
                    // create (redundancy against device, not node, loss).
                    None => self
                        .alloc
                        .alloc_micro_where(&score, |b| b != primary.backend)?,
                }
            } else {
                primary
            };
            micros.push([primary, shadow]);
        }
        let id = FileId(self.next_file);
        self.next_file += 1;
        self.files.insert(
            id,
            File {
                micros,
                size_blocks: blocks,
            },
        );
        Some(id)
    }

    /// Delete a file, returning its blobs to the pool.
    pub fn delete_file(&mut self, id: FileId) {
        let f = self.files.remove(&id).expect("unknown file");
        for [p, s] in f.micros {
            self.alloc.free_micro(p);
            if self.replicate {
                self.alloc.free_micro(s);
            }
        }
    }

    /// Number of live files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// The replica backends holding the micro at `offset_blocks`.
    pub fn replicas_at(&self, id: FileId, offset_blocks: u64) -> [BackendId; 2] {
        let f = self.files.get(&id).expect("live file");
        let micro = self.alloc.micro_blocks();
        let pair = f.micros[(offset_blocks / micro) as usize];
        [pair[0].backend, pair[1].backend]
    }

    /// Append one IO per touched micro per picked replica to `out`, in file
    /// order. `pick` returns the chosen copies of one micro pair and how
    /// many of them are used.
    fn span_plans(
        &self,
        id: FileId,
        offset: u64,
        blocks: u64,
        op: IoType,
        mut pick: impl FnMut(&[BlobAddr; 2]) -> ([BlobAddr; 2], usize),
        out: &mut Vec<IoPlan>,
    ) {
        let f = self.files.get(&id).expect("live file");
        assert!(offset + blocks <= f.size_blocks, "IO beyond file size");
        let micro = self.alloc.micro_blocks();
        let mut cur = offset;
        let end = offset + blocks;
        while cur < end {
            let idx = (cur / micro) as usize;
            let within = cur % micro;
            let len = (micro - within).min(end - cur);
            let (addrs, n) = pick(&f.micros[idx]);
            out.extend(addrs[..n].iter().map(|addr| IoPlan {
                backend: addr.backend,
                lba: addr.lba + within,
                blocks: len,
                op,
            }));
            cur += len;
        }
    }

    /// Plan a write, appending to `out`: one IO per touched micro per
    /// replica. The caller must treat the whole set as one logical write
    /// (complete when all complete).
    pub fn plan_write_into(&self, id: FileId, offset: u64, blocks: u64, out: &mut Vec<IoPlan>) {
        let copies = if self.replicate { 2 } else { 1 };
        self.span_plans(
            id,
            offset,
            blocks,
            IoType::Write,
            |pair| (*pair, copies),
            out,
        );
    }

    /// Plan a read, appending to `out`; `choose` picks the replica index
    /// (0 = primary) per micro, typically
    /// [`crate::RateLimiter::choose_replica`].
    pub fn plan_read_into<C: Fn(&[BackendId; 2]) -> usize>(
        &self,
        id: FileId,
        offset: u64,
        blocks: u64,
        choose: C,
        out: &mut Vec<IoPlan>,
    ) {
        self.span_plans(
            id,
            offset,
            blocks,
            IoType::Read,
            |pair| {
                let pick = choose(&[pair[0].backend, pair[1].backend]).min(1);
                ([pair[pick]; 2], 1)
            },
            out,
        );
    }

    /// [`Self::plan_read_into`] into a fresh `Vec`.
    pub fn plan_read<C: Fn(&[BackendId; 2]) -> usize>(
        &self,
        id: FileId,
        offset: u64,
        blocks: u64,
        choose: C,
    ) -> Vec<IoPlan> {
        let mut out = Vec::new();
        self.plan_read_into(id, offset, blocks, choose, &mut out);
        out
    }

    /// Plan a write that skips failed backends (`dead` reports the failure
    /// view, typically [`crate::RateLimiter::is_dead`]), appending to
    /// `out`: replicas on dead backends are dropped. Returns whether any
    /// micro lost a replica that way — the data then lands on a single
    /// live copy and redundancy is reduced until re-replication. Errs with
    /// [`BlobError::DataUnavailable`], leaving `out` as it was, when a
    /// micro has no live replica left at all.
    pub fn plan_write_degraded_into<D: Fn(BackendId) -> bool>(
        &self,
        id: FileId,
        offset: u64,
        blocks: u64,
        dead: D,
        out: &mut Vec<IoPlan>,
    ) -> Result<bool, BlobError> {
        let want = if self.replicate { 2 } else { 1 };
        let mut degraded = false;
        let mut unservable = false;
        let start = out.len();
        self.span_plans(
            id,
            offset,
            blocks,
            IoType::Write,
            |pair| {
                let mut live = *pair;
                let mut n = 0;
                for &a in &pair[..want] {
                    if !dead(a.backend) {
                        live[n] = a;
                        n += 1;
                    }
                }
                if n == 0 {
                    unservable = true;
                } else if n < want {
                    degraded = true;
                }
                (live, n)
            },
            out,
        );
        if unservable {
            out.truncate(start);
            return Err(BlobError::DataUnavailable);
        }
        Ok(degraded)
    }
}

#[cfg(test)]
impl Blobstore {
    /// File size in blocks.
    pub(crate) fn file_blocks(&self, id: FileId) -> u64 {
        self.files.get(&id).expect("live file").size_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::HbaConfig;

    fn store(replicate: bool, backends: usize) -> Blobstore {
        let alloc = HierarchicalAllocator::new(HbaConfig::default(), &vec![16384; backends]);
        Blobstore::new(alloc, replicate).expect("valid store config")
    }

    fn plan_write(s: &Blobstore, id: FileId, offset: u64, blocks: u64) -> Vec<IoPlan> {
        let mut out = Vec::new();
        s.plan_write_into(id, offset, blocks, &mut out);
        out
    }

    fn plan_write_degraded(
        s: &Blobstore,
        id: FileId,
        offset: u64,
        blocks: u64,
        dead: impl Fn(BackendId) -> bool,
    ) -> Result<(Vec<IoPlan>, bool), BlobError> {
        let mut out = Vec::new();
        let degraded = s.plan_write_degraded_into(id, offset, blocks, dead, &mut out)?;
        Ok((out, degraded))
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut s = store(true, 3);
        let f = s.create_file(128, |_| 1.0).unwrap();
        assert_eq!(s.file_blocks(f), 128);
        let writes = plan_write(&s, f, 0, 128);
        // 2 micros × 2 replicas.
        assert_eq!(writes.len(), 4);
        assert!(writes.iter().all(|p| p.op == IoType::Write));
        let reads = s.plan_read(f, 0, 128, |_| 0);
        assert_eq!(reads.len(), 2);
        assert!(reads.iter().all(|p| p.op == IoType::Read));
    }

    #[test]
    fn replicas_land_on_distinct_backends() {
        let mut s = store(true, 3);
        let f = s.create_file(64 * 10, |_| 1.0).unwrap();
        for off in (0..640).step_by(64) {
            let [p, sh] = s.replicas_at(f, off);
            assert_ne!(p, sh, "replica collision at {off}");
        }
    }

    #[test]
    fn zoned_replicas_land_on_distinct_nodes() {
        // 4 backends, 2 per node: every shadow must sit on the other node.
        let mut s = store(true, 4);
        let zone = |b: BackendId| (b.index() / 2) as u32;
        let f = s.create_file_zoned(64 * 8, |_| 1.0, zone).unwrap();
        for off in (0..64 * 8).step_by(64) {
            let [p, sh] = s.replicas_at(f, off);
            assert_ne!(zone(p), zone(sh), "node collision at {off}");
        }
    }

    #[test]
    fn zoned_create_degrades_to_same_node_when_the_other_is_full() {
        // Node 1 (backend 1) too small to hold shadows: the create must
        // still succeed with both copies on node 0's two backends.
        let alloc = HierarchicalAllocator::new(HbaConfig::default(), &[16384, 16384, 4096]);
        let mut s = Blobstore::new(alloc, true).unwrap();
        let zone = |b: BackendId| u32::from(b.index() == 2);
        // 4096 blocks = 1 mega = 64 micros on node 1; ask for more shadows
        // than it can hold.
        let f = s.create_file_zoned(64 * 128, |_| 1.0, zone).unwrap();
        let mut same_node_pairs = 0;
        for off in (0..64 * 128).step_by(64) {
            let [p, sh] = s.replicas_at(f, off);
            assert_ne!(p, sh, "replicas always on distinct backends");
            if zone(p) == zone(sh) {
                same_node_pairs += 1;
            }
        }
        assert!(same_node_pairs > 0, "overflow fell back to same-node");
    }

    #[test]
    fn unreplicated_store_writes_once() {
        let mut s = store(false, 1);
        let f = s.create_file(64, |_| 1.0).unwrap();
        assert_eq!(plan_write(&s, f, 0, 64).len(), 1);
    }

    #[test]
    fn sub_micro_reads_are_offset_correctly() {
        let mut s = store(false, 1);
        let f = s.create_file(64, |_| 1.0).unwrap();
        let plans = s.plan_read(f, 10, 4, |_| 0);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].blocks, 4);
        assert_eq!(plans[0].lba % 64, 10);
    }

    #[test]
    fn spans_split_at_micro_boundaries() {
        let mut s = store(false, 1);
        let f = s.create_file(192, |_| 1.0).unwrap();
        let plans = s.plan_read(f, 60, 10, |_| 0);
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].blocks, 4);
        assert_eq!(plans[1].blocks, 6);
    }

    #[test]
    fn read_chooser_picks_replica() {
        let mut s = store(true, 2);
        let f = s.create_file(64, |_| 1.0).unwrap();
        let primary = s.plan_read(f, 0, 64, |_| 0)[0].backend;
        let shadow = s.plan_read(f, 0, 64, |_| 1)[0].backend;
        assert_ne!(primary, shadow);
    }

    #[test]
    fn delete_returns_space() {
        let mut s = store(true, 2);
        let before: u64 = (0..2)
            .map(|i| s.allocator().free_blocks(BackendId(i)))
            .sum();
        let f = s.create_file(64 * 4, |_| 1.0).unwrap();
        s.delete_file(f);
        let after: u64 = (0..2)
            .map(|i| s.allocator().free_blocks(BackendId(i)))
            .sum();
        assert_eq!(before, after);
    }

    #[test]
    fn allocation_exhaustion_returns_none() {
        let mut s = store(false, 1);
        // 16384 blocks total = 256 micros.
        assert!(s.create_file(16384, |_| 1.0).is_some());
        assert!(s.create_file(64, |_| 1.0).is_none());
    }

    #[test]
    #[should_panic(expected = "beyond file size")]
    fn read_past_eof_panics() {
        let mut s = store(false, 1);
        let f = s.create_file(64, |_| 1.0).unwrap();
        s.plan_read(f, 60, 10, |_| 0);
    }

    #[test]
    fn replication_on_one_backend_is_an_error_not_a_panic() {
        let alloc = HierarchicalAllocator::new(HbaConfig::default(), &[16384]);
        let err = Blobstore::new(alloc, true).err();
        assert_eq!(err, Some(crate::BlobError::NeedTwoBackends { backends: 1 }));
    }

    #[test]
    fn degraded_write_drops_dead_replicas_and_surfaces_it() {
        let mut s = store(true, 2);
        let f = s.create_file(128, |_| 1.0).unwrap();
        // Healthy: both replicas, not degraded.
        let (plans, degraded) = plan_write_degraded(&s, f, 0, 128, |_| false).unwrap();
        assert_eq!(plans.len(), 4);
        assert!(!degraded);
        // Backend 0 dies: single-replica writes, surfaced as degraded.
        let dead = BackendId(0);
        let (plans, degraded) = plan_write_degraded(&s, f, 0, 128, |b| b == dead).unwrap();
        assert_eq!(plans.len(), 2);
        assert!(degraded);
        assert!(plans.iter().all(|p| p.backend != dead));
        // Everything dead: unservable.
        assert_eq!(
            plan_write_degraded(&s, f, 0, 128, |_| true).err(),
            Some(crate::BlobError::DataUnavailable)
        );
    }

    /// The planner before it wrote into a caller's buffer: one `Vec` of
    /// chosen copies per micro, collected into a fresh plan list.
    fn reference_plans(
        s: &Blobstore,
        id: FileId,
        offset: u64,
        blocks: u64,
        op: IoType,
        mut pick: impl FnMut(&[BlobAddr; 2]) -> Vec<BlobAddr>,
    ) -> Vec<IoPlan> {
        let f = s.files.get(&id).expect("live file");
        let micro = s.alloc.micro_blocks();
        let mut plans = Vec::new();
        let mut cur = offset;
        let end = offset + blocks;
        while cur < end {
            let idx = (cur / micro) as usize;
            let within = cur % micro;
            let len = (micro - within).min(end - cur);
            for addr in pick(&f.micros[idx]) {
                plans.push(IoPlan {
                    backend: addr.backend,
                    lba: addr.lba + within,
                    blocks: len,
                    op,
                });
            }
            cur += len;
        }
        plans
    }

    fn reference_degraded(
        s: &Blobstore,
        id: FileId,
        offset: u64,
        blocks: u64,
        dead: impl Fn(BackendId) -> bool,
    ) -> Result<(Vec<IoPlan>, bool), BlobError> {
        let (mut degraded, mut unservable) = (false, false);
        let plans = reference_plans(s, id, offset, blocks, IoType::Write, |pair| {
            let want: &[BlobAddr] = if s.replicate { &pair[..] } else { &pair[..1] };
            let live: Vec<BlobAddr> = want.iter().copied().filter(|a| !dead(a.backend)).collect();
            if live.is_empty() {
                unservable = true;
            } else if live.len() < want.len() {
                degraded = true;
            }
            live
        });
        if unservable {
            return Err(BlobError::DataUnavailable);
        }
        Ok((plans, degraded))
    }

    #[test]
    fn into_planners_match_the_per_micro_vec_planner() {
        let mut rng = gimbal_sim::SimRng::new(7);
        for (replicate, backends) in [(false, 1), (false, 3), (true, 2), (true, 4)] {
            let mut s = store(replicate, backends);
            let files: Vec<FileId> = (0..3)
                .map(|_| s.create_file(64 * 7 + 13, |_| 1.0).unwrap())
                .collect();
            // No backend dead, each one dead alone, and every one dead.
            let mut dead_sets: Vec<Vec<u32>> = vec![vec![]];
            dead_sets.extend((0..backends as u32).map(|b| vec![b]));
            dead_sets.push((0..backends as u32).collect());
            for _ in 0..200 {
                let f = files[rng.gen_below(3) as usize];
                let size = s.file_blocks(f);
                let offset = rng.gen_below(size);
                // Up to three micros long, so most spans cross a boundary.
                let blocks = 1 + rng.gen_below((size - offset).min(3 * 64));
                let side = rng.gen_below(2) as usize;
                let choose = |_: &[BackendId; 2]| side;
                assert_eq!(
                    s.plan_read(f, offset, blocks, choose),
                    reference_plans(&s, f, offset, blocks, IoType::Read, |pair| {
                        vec![pair[side]]
                    })
                );
                assert_eq!(
                    plan_write(&s, f, offset, blocks),
                    reference_plans(&s, f, offset, blocks, IoType::Write, |pair| {
                        if replicate {
                            pair.to_vec()
                        } else {
                            vec![pair[0]]
                        }
                    })
                );
                for dead in &dead_sets {
                    let is_dead = |b: BackendId| dead.contains(&b.0);
                    assert_eq!(
                        plan_write_degraded(&s, f, offset, blocks, is_dead),
                        reference_degraded(&s, f, offset, blocks, is_dead),
                        "replicate {replicate}, dead {dead:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn into_planners_append_to_out() {
        let mut s = store(true, 2);
        let f = s.create_file(128, |_| 1.0).unwrap();
        let marker = IoPlan {
            backend: BackendId(9),
            lba: 1,
            blocks: 1,
            op: IoType::Read,
        };
        let mut out = vec![marker];
        s.plan_read_into(f, 0, 128, |_| 0, &mut out);
        assert_eq!(out.len(), 3);
        s.plan_write_into(f, 0, 128, &mut out);
        assert_eq!(out.len(), 7);
        assert_eq!(
            s.plan_write_degraded_into(f, 0, 128, |_| false, &mut out),
            Ok(false)
        );
        assert_eq!(out.len(), 11);
        assert_eq!(out[0], marker);
    }

    #[test]
    fn failed_degraded_write_leaves_out_unchanged() {
        let mut s = store(true, 3);
        let f = s.create_file(64 * 4, |_| 1.0).unwrap();
        let before = plan_write(&s, f, 0, 64);
        let mut out = before.clone();
        // Kill both copies of the last micro: whatever was planned for the
        // micros before it must be rolled back.
        let [p, sh] = s.replicas_at(f, 64 * 3);
        let dead = |b: BackendId| b == p || b == sh;
        assert_eq!(
            s.plan_write_degraded_into(f, 0, 64 * 4, dead, &mut out),
            Err(BlobError::DataUnavailable)
        );
        assert_eq!(out, before);
    }
}
