//! Deterministic, insertion-ordered map and set.
//!
//! `std::collections::HashMap`/`HashSet` randomize their iteration order per
//! process (by design, via a random `RandomState` seed), so any simulation
//! state that is *iterated* — scheduler tenant tables, WAL groups, memtables —
//! silently breaks the "one seed pins down the whole run" invariant the
//! workspace is built on. [`DetMap`] and [`DetSet`] are drop-in replacements
//! whose iteration order is the *insertion order* (re-insertion of a live key
//! keeps its original position), independent of hasher seeds and platforms.
//!
//! Design: a slab of `Option<(K, V)>` entries in insertion order plus a
//! hash index from key to slab position. Lookup/insert/remove are O(1)
//! amortized; removal leaves a tombstone that iteration skips, and the slab
//! compacts itself whenever tombstones outnumber live entries, keeping
//! iteration O(live) amortized. The interior hash map is used purely as an
//! index — it is never iterated — so its ordering cannot leak into
//! simulation behaviour.
//!
//! The index hashes with a fixed-seed `IndexHasher`, not std's randomly
//! keyed SipHash: lookups sit on every per-IO path (in-flight tables,
//! broker accounts, cache lines). Keys are ids the simulator generates,
//! never outside input, so SipHash's resistance to crafted collisions buys
//! nothing here.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Key → slab position. The one place a std hash map is allowed in the
/// simulation crates: never iterated, so its layout decides speed, never order.
#[expect(
    clippy::disallowed_types,
    reason = "index only, never iterated; order comes from the slab"
)]
type Index<K> = std::collections::HashMap<K, usize, BuildHasherDefault<IndexHasher>>;

/// Odd multiplier (2^64 / golden ratio) that folds each input word in.
const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;

/// Fixed-seed hasher for the [`DetMap`] index.
///
/// Input is folded one word at a time (`state = (rotl(state, 5) ^ word) ×
/// FOLD`), then [`Hasher::finish`] applies a 64-bit xor-shift-multiply
/// finalizer. The fold alone leaves a key's low bits depending only on its
/// low bits — ids that differ only above bit 40 (`k << 40`, flush ids at
/// `1 << 63`) would all land in one bucket, and the hash table picks buckets
/// from the low bits. The finalizer mixes every input bit into every output
/// bit.
#[derive(Clone, Copy, Debug, Default)]
struct IndexHasher(u64);

impl IndexHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FOLD);
    }
}

impl Hasher for IndexHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        let mut word = [0u8; 8];
        for chunk in &mut chunks {
            word.copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }

    /// The murmur3 `fmix64` finalizer.
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// A deterministic insertion-ordered map.
#[derive(Clone, Debug)]
pub struct DetMap<K, V> {
    /// Entries in insertion order; `None` marks a removed entry.
    slab: Vec<Option<(K, V)>>,
    /// Key → slab position.
    index: Index<K>,
}

impl<K, V> Default for DetMap<K, V> {
    fn default() -> Self {
        DetMap {
            slab: Vec::new(),
            index: Index::default(),
        }
    }
}

impl<K: Eq + Hash + Clone, V> DetMap<K, V> {
    /// Create an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Insert, returning the previous value if the key was present. A live
    /// key keeps its insertion-order position; a new key goes to the back.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(&pos) = self.index.get(&key) {
            let slot = self.slab[pos].as_mut().expect("index points at live slot");
            return Some(std::mem::replace(&mut slot.1, value));
        }
        self.index.insert(key.clone(), self.slab.len());
        self.slab.push(Some((key, value)));
        None
    }

    /// Look up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        let &pos = self.index.get(key)?;
        self.slab[pos].as_ref().map(|(_, v)| v)
    }

    /// Look up a key, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let &pos = self.index.get(key)?;
        self.slab[pos].as_mut().map(|(_, v)| v)
    }

    /// Whether the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Remove a key, returning its value. Iteration order of the remaining
    /// entries is unchanged.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let pos = self.index.remove(key)?;
        let (_, v) = self.slab[pos].take().expect("index points at live slot");
        self.maybe_compact();
        Some(v)
    }

    /// Get the value for `key`, inserting one built by `make` if absent.
    pub fn get_or_insert_with<F: FnOnce() -> V>(&mut self, key: K, make: F) -> &mut V {
        let pos = match self.index.get(&key) {
            Some(&pos) => pos,
            None => {
                let pos = self.slab.len();
                self.index.insert(key.clone(), pos);
                self.slab.push(Some((key, make())));
                pos
            }
        };
        self.slab[pos].as_mut().map(|(_, v)| v).expect("live slot")
    }

    /// Remove all entries.
    pub fn clear(&mut self) {
        self.slab.clear();
        self.index.clear();
    }

    /// Iterate `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slab
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, v)| (k, v)))
    }

    /// Iterate pairs in insertion order, values mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.slab
            .iter_mut()
            .filter_map(|s| s.as_mut().map(|(k, v)| (&*k, v)))
    }

    /// Iterate keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterate values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Iterate values mutably, in insertion order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.iter_mut().map(|(_, v)| v)
    }

    /// Keep only the entries satisfying the predicate (in order).
    pub fn retain<F: FnMut(&K, &mut V) -> bool>(&mut self, mut pred: F) {
        for slot in &mut self.slab {
            if let Some((k, v)) = slot {
                if !pred(k, v) {
                    self.index.remove(k);
                    *slot = None;
                }
            }
        }
        self.maybe_compact();
    }

    /// Compact the slab once tombstones dominate, keeping iteration O(live).
    fn maybe_compact(&mut self) {
        if self.slab.len() >= 8 && self.index.len() * 2 < self.slab.len() {
            self.slab.retain(Option::is_some);
            for (pos, slot) in self.slab.iter().enumerate() {
                let (k, _) = slot.as_ref().expect("compacted");
                *self.index.get_mut(k).expect("indexed") = pos;
            }
        }
    }
}

impl<K: Eq + Hash + Clone, V> FromIterator<(K, V)> for DetMap<K, V> {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let mut m = DetMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl<K: Eq + Hash + Clone, V> Extend<(K, V)> for DetMap<K, V> {
    fn extend<T: IntoIterator<Item = (K, V)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

/// Owning iterator over a [`DetMap`], in insertion order.
pub struct IntoIter<K, V>(std::iter::Flatten<std::vec::IntoIter<Option<(K, V)>>>);

impl<K, V> Iterator for IntoIter<K, V> {
    type Item = (K, V);
    fn next(&mut self) -> Option<(K, V)> {
        self.0.next()
    }
}

impl<K: Eq + Hash + Clone, V> IntoIterator for DetMap<K, V> {
    type Item = (K, V);
    type IntoIter = IntoIter<K, V>;
    fn into_iter(self) -> IntoIter<K, V> {
        IntoIter(self.slab.into_iter().flatten())
    }
}

/// A deterministic insertion-ordered set.
#[derive(Clone, Debug, Default)]
pub struct DetSet<T> {
    map: DetMap<T, ()>,
}

impl<T: Eq + Hash + Clone> DetSet<T> {
    /// Create an empty set.
    pub fn new() -> Self {
        DetSet { map: DetMap::new() }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Insert; returns whether the element was newly added.
    pub fn insert(&mut self, value: T) -> bool {
        self.map.insert(value, ()).is_none()
    }

    /// Whether the element is present.
    pub fn contains(&self, value: &T) -> bool {
        self.map.contains_key(value)
    }

    /// Remove; returns whether the element was present.
    pub fn remove(&mut self, value: &T) -> bool {
        self.map.remove(value).is_some()
    }

    /// Remove all elements.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Iterate elements in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.map.keys()
    }
}

impl<T: Eq + Hash + Clone> FromIterator<T> for DetSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut s = DetSet::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

impl<T: Eq + Hash + Clone> Extend<T> for DetSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<'a, T: Eq + Hash + Copy> Extend<&'a T> for DetSet<T> {
    fn extend<I: IntoIterator<Item = &'a T>>(&mut self, iter: I) {
        for &v in iter {
            self.insert(v);
        }
    }
}

/// Owning iterator over a [`DetSet`], in insertion order.
pub struct SetIntoIter<T>(IntoIter<T, ()>);

impl<T> Iterator for SetIntoIter<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.0.next().map(|(k, ())| k)
    }
}

impl<T: Eq + Hash + Clone> IntoIterator for DetSet<T> {
    type Item = T;
    type IntoIter = SetIntoIter<T>;
    fn into_iter(self) -> SetIntoIter<T> {
        SetIntoIter(self.map.into_iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_follows_insertion_order() {
        let mut m = DetMap::new();
        for k in [5u64, 1, 9, 3, 7] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u64> = m.keys().copied().collect();
        assert_eq!(keys, vec![5, 1, 9, 3, 7]);
        let vals: Vec<u64> = m.values().copied().collect();
        assert_eq!(vals, vec![50, 10, 90, 30, 70]);
    }

    #[test]
    fn reinsertion_keeps_position_removal_preserves_order() {
        let mut m = DetMap::new();
        for k in [1u32, 2, 3, 4] {
            m.insert(k, 0);
        }
        assert_eq!(m.insert(2, 99), Some(0), "overwrite returns old value");
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert_eq!(m.remove(&3), Some(0));
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![1, 2, 4]);
        // New key goes to the back.
        m.insert(3, 1);
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![1, 2, 4, 3]);
    }

    #[test]
    fn compaction_preserves_order_and_lookups() {
        let mut m = DetMap::new();
        for k in 0u64..100 {
            m.insert(k, k);
        }
        for k in 0u64..90 {
            assert_eq!(m.remove(&k), Some(k));
        }
        assert_eq!(m.len(), 10);
        assert_eq!(
            m.keys().copied().collect::<Vec<_>>(),
            (90..100).collect::<Vec<_>>()
        );
        for k in 90u64..100 {
            assert_eq!(m.get(&k), Some(&k));
        }
        // Slab must have compacted: insert after heavy removal still works.
        m.insert(1000, 1);
        assert_eq!(m.keys().last(), Some(&1000));
    }

    #[test]
    fn get_or_insert_with_inserts_once() {
        let mut m: DetMap<u8, Vec<u8>> = DetMap::new();
        m.get_or_insert_with(1, Vec::new).push(10);
        m.get_or_insert_with(1, || panic!("must not rebuild"))
            .push(11);
        assert_eq!(m.get(&1), Some(&vec![10, 11]));
    }

    #[test]
    fn retain_filters_in_order() {
        let mut m: DetMap<u32, u32> = (0..10).map(|k| (k, k)).collect();
        m.retain(|k, _| k % 3 == 0);
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![0, 3, 6, 9]);
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn set_order_and_membership() {
        let mut s = DetSet::new();
        for v in [3u64, 1, 4, 1, 5, 9, 2, 6] {
            s.insert(v);
        }
        assert_eq!(
            s.iter().copied().collect::<Vec<_>>(),
            vec![3, 1, 4, 5, 9, 2, 6]
        );
        assert!(s.contains(&5));
        assert!(s.remove(&4));
        assert!(!s.remove(&4));
        assert_eq!(
            s.iter().copied().collect::<Vec<_>>(),
            vec![3, 1, 5, 9, 2, 6]
        );
        assert_eq!(s.len(), 6);
    }

    fn index_hash<T: Hash>(key: T) -> u64 {
        use std::hash::BuildHasher;
        BuildHasherDefault::<IndexHasher>::default().hash_one(key)
    }

    #[test]
    fn index_hasher_has_no_seed() {
        use std::hash::BuildHasher;
        let (a, b) = (
            BuildHasherDefault::<IndexHasher>::default(),
            BuildHasherDefault::<IndexHasher>::default(),
        );
        for k in [0u64, 1, 42, 1 << 40, u64::MAX] {
            assert_eq!(a.hash_one(k), b.hash_one(k));
        }
        assert_eq!(a.hash_one("tenant"), b.hash_one("tenant"));
        // Pinned: a change here changes the index layout (never the order).
        assert_eq!(index_hash(42u64), 15_865_929_701_139_458_749);
        assert_eq!(index_hash((3u32, 7u32)), 11_119_857_194_942_354_389);
    }

    #[test]
    fn index_hasher_spreads_structured_keys_over_low_bits() {
        // The hash table picks buckets from the low bits. 65 536 keys over
        // 4 096 low-12-bit buckets: mean load 16, allowed max 48.
        const N: u64 = 65_536;
        const BUCKETS: usize = 1 << 12;
        // gimbal_cache::FLUSH_ID_BASE: write-back flush ids set the top bit.
        const FLUSH_ID_BASE: u64 = 1 << 63;
        let mean = (N as usize / BUCKETS) as u32;
        let sets: [(&str, Vec<u64>); 4] = [
            ("dense ids", (0..N).map(index_hash).collect()),
            (
                "high bits only",
                (0..N).map(|k| index_hash(k << 40)).collect(),
            ),
            (
                "flush ids",
                (0..N).map(|k| index_hash(FLUSH_ID_BASE | k)).collect(),
            ),
            (
                "(u32, u32) pairs",
                (0..N)
                    .map(|k| index_hash(((k / 256) as u32, (k % 256) as u32)))
                    .collect(),
            ),
        ];
        for (name, hashes) in sets {
            let mut load = vec![0u32; BUCKETS];
            for h in hashes {
                load[(h as usize) & (BUCKETS - 1)] += 1;
            }
            let max = *load.iter().max().expect("buckets");
            assert!(
                max <= 3 * mean,
                "{name}: max bucket load {max}, mean {mean}"
            );
        }
    }

    #[test]
    fn order_is_identical_across_instances() {
        // The property HashMap lacks: two maps built the same way iterate
        // the same way, every time, in every process.
        let build = || {
            let mut m = DetMap::new();
            let mut x = 1u64;
            for _ in 0..500 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                m.insert(x >> 33, x);
            }
            for k in (0..500).step_by(3) {
                m.remove(&k);
            }
            m.keys().copied().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
