//! SSTable metadata: key range, membership ground truth, Bloom filter
//! behaviour, and backing file.

use gimbal_blobstore::FileId;
use gimbal_sim::SimRng;

/// Identifies an SSTable within one store instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct TableId(pub u64);

/// An SSTable: a sorted, immutable run of key-value pairs in one blobstore
/// file. Key *membership* is tracked exactly (the simulation's ground
/// truth) as a sorted, deduplicated slice; the Bloom filter is modeled by
/// its false-positive rate.
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
    /// Exact key membership, strictly increasing.
    keys: Box<[u64]>,
    /// File size in logical blocks.
    pub size_blocks: u64,
}

impl SsTable {
    /// Build a table over `keys`, which must be non-empty and strictly
    /// increasing (sorted and deduplicated). Checked in release builds
    /// too: an unsorted run would silently break the binary search.
    pub(crate) fn new(id: TableId, file: FileId, keys: Vec<u64>, size_blocks: u64) -> Self {
        assert!(!keys.is_empty(), "empty SSTable");
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "SSTable keys must be strictly increasing"
        );
        SsTable {
            id,
            file,
            key_min: keys[0],
            key_max: keys[keys.len() - 1],
            keys: keys.into_boxed_slice(),
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
        self.keys.binary_search(&key).is_ok()
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

    /// The keys in increasing order (for compaction merging).
    pub(crate) fn keys(&self) -> &[u64] {
        &self.keys
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
        SsTable::new(TableId(1), FileId(0), keys.to_vec(), 64)
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

    /// Raw key streams as a flush or a compaction sees them: duplicates,
    /// out-of-order keys, a single key, and the extremes 0 and `u64::MAX`.
    fn raw_streams(rng: &mut SimRng) -> Vec<Vec<u64>> {
        let mut streams = vec![
            vec![7],
            vec![0],
            vec![u64::MAX],
            vec![u64::MAX, 0, u64::MAX, 0],
            vec![3, 3, 3],
        ];
        for case in 0..48u64 {
            let len = 1 + rng.gen_below(300) as usize;
            // A narrow span forces duplicates; a base near an end of the
            // key space puts runs against 0 and `u64::MAX`.
            let span = 1 + rng.gen_below(if case % 2 == 0 { 64 } else { 1 << 20 });
            let base = match case % 3 {
                0 => 0,
                1 => u64::MAX - span + 1,
                _ => rng.next_u64() >> 1,
            };
            streams.push((0..len).map(|_| base + rng.gen_below(span)).collect());
        }
        streams
    }

    #[test]
    fn sorted_runs_match_a_btreeset_oracle() {
        use std::collections::BTreeSet;
        let mut gen = SimRng::new(0x55_7AB1E);
        for raw in raw_streams(&mut gen) {
            let oracle: BTreeSet<u64> = raw.iter().copied().collect();
            let mut keys = raw.clone();
            keys.sort_unstable();
            keys.dedup();
            let t = SsTable::new(TableId(1), FileId(0), keys, 64);
            let (lo, hi) = (*oracle.first().unwrap(), *oracle.last().unwrap());
            assert_eq!((t.key_min, t.key_max), (lo, hi), "{raw:?}");
            assert_eq!(t.entries(), oracle.len(), "{raw:?}");
            assert!(t.keys().iter().eq(oracle.iter()), "{raw:?}");
            // Probe every member, its neighbours, the extremes and random
            // keys; the Bloom verdict must draw from the RNG exactly when
            // the key is covered and not a member.
            let mut probes: Vec<u64> = vec![0, 1, u64::MAX - 1, u64::MAX];
            for &k in &oracle {
                probes.extend([k.wrapping_sub(1), k, k.wrapping_add(1)]);
            }
            probes.extend((0..64).map(|_| lo.wrapping_add(gen.gen_below(1 << 21))));
            let mut rng = SimRng::new(9);
            for k in probes {
                let member = oracle.contains(&k);
                let covered = (lo..=hi).contains(&k);
                assert_eq!(t.contains(k), member, "contains({k}) of {raw:?}");
                assert_eq!(t.covers(k), covered, "covers({k}) of {raw:?}");
                let mut mirror = rng.clone();
                let want = covered && (member || mirror.gen_bool(0.3));
                assert_eq!(t.bloom_maybe(k, 0.3, &mut rng), want, "bloom({k})");
                assert_eq!(
                    rng.clone().next_u64(),
                    mirror.next_u64(),
                    "bloom({k}) draw count (covered {covered}, member {member})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn new_rejects_unsorted_keys() {
        table(&[1, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn new_rejects_duplicate_keys() {
        table(&[1, 2, 2, 3]);
    }
}
