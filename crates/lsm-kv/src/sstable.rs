//! SSTable metadata: key range, membership ground truth, Bloom filter
//! behaviour, and backing file.

use gimbal_blobstore::FileId;
use gimbal_sim::collections::DetSet;
use gimbal_sim::SimRng;

/// Identifies an SSTable within one store instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct TableId(pub u64);

/// An SSTable: a sorted, immutable run of key-value pairs in one blobstore
/// file. Key *membership* is tracked exactly (the simulation's ground
/// truth); the Bloom filter is modeled by its false-positive rate.
#[derive(Clone, Debug)]
pub(crate) struct SsTable {
    /// Table identity.
    pub id: TableId,
    /// Backing blobstore file.
    pub file: FileId,
    /// Smallest key.
    pub key_min: u64,
    /// Largest key.
    pub key_max: u64,
    /// Exact key membership.
    keys: DetSet<u64>,
    /// File size in logical blocks.
    pub size_blocks: u64,
}

impl SsTable {
    /// Build a table over a sorted, deduplicated key set.
    pub(crate) fn new(id: TableId, file: FileId, keys: DetSet<u64>, size_blocks: u64) -> Self {
        assert!(!keys.is_empty(), "empty SSTable");
        let key_min = *keys.iter().min().unwrap();
        let key_max = *keys.iter().max().unwrap();
        SsTable {
            id,
            file,
            key_min,
            key_max,
            keys,
            size_blocks,
        }
    }

    /// Number of entries.
    pub(crate) fn entries(&self) -> usize {
        self.keys.len()
    }

    /// Whether `key` falls in this table's range.
    pub(crate) fn covers(&self, key: u64) -> bool {
        (self.key_min..=self.key_max).contains(&key)
    }

    /// Exact membership (ground truth).
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.keys.contains(&key)
    }

    /// Bloom filter verdict: always true for members; false positives at
    /// `fp_rate` for covered non-members. A `false` verdict skips the probe
    /// IO entirely, as in RocksDB.
    pub(crate) fn bloom_maybe(&self, key: u64, fp_rate: f64, rng: &mut SimRng) -> bool {
        if !self.covers(key) {
            return false;
        }
        self.contains(key) || rng.gen_bool(fp_rate)
    }

    /// Whether this table's range overlaps `[lo, hi]`.
    pub(crate) fn overlaps(&self, lo: u64, hi: u64) -> bool {
        self.key_min <= hi && lo <= self.key_max
    }

    /// Iterate the key set (for compaction merging).
    pub(crate) fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.keys.iter().copied()
    }

    /// The block offset within the file that a point lookup of `key` reads
    /// (deterministic hash placement — which block doesn't matter to the
    /// simulation, only that it's one 4 KiB block).
    pub(crate) fn block_of(&self, key: u64) -> u64 {
        if self.size_blocks == 0 {
            0
        } else {
            key.wrapping_mul(0x9e3779b97f4a7c15) % self.size_blocks
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(keys: &[u64]) -> SsTable {
        SsTable::new(TableId(1), FileId(0), keys.iter().copied().collect(), 64)
    }

    #[test]
    fn range_and_membership() {
        let t = table(&[5, 10, 20]);
        assert_eq!(t.key_min, 5);
        assert_eq!(t.key_max, 20);
        assert!(t.covers(10) && t.covers(7));
        assert!(!t.covers(4) && !t.covers(21));
        assert!(t.contains(10));
        assert!(!t.contains(7));
        assert_eq!(t.entries(), 3);
    }

    #[test]
    fn bloom_never_misses_members_and_rarely_fps() {
        let t = table(&(0..1000).map(|k| k * 2).collect::<Vec<_>>());
        let mut rng = SimRng::new(1);
        for k in (0..2000).step_by(2) {
            assert!(t.bloom_maybe(k, 0.01, &mut rng), "member {k} missed");
        }
        let fps = (1..1999)
            .step_by(2)
            .filter(|&k| t.bloom_maybe(k, 0.01, &mut rng))
            .count();
        assert!(fps < 30, "fp count {fps} of ~1000 at 1%");
        // Out-of-range keys never probe.
        assert!(!t.bloom_maybe(10_000, 1.0, &mut rng));
    }

    #[test]
    fn overlap_checks() {
        let t = table(&[100, 200]);
        assert!(t.overlaps(150, 160));
        assert!(t.overlaps(0, 100));
        assert!(t.overlaps(200, 300));
        assert!(!t.overlaps(0, 99));
        assert!(!t.overlaps(201, 400));
    }

    #[test]
    fn block_of_is_stable_and_bounded() {
        let t = table(&[1, 2, 3]);
        for k in 0..100 {
            let b = t.block_of(k);
            assert!(b < 64);
            assert_eq!(b, t.block_of(k));
        }
    }
}
