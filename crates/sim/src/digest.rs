//! A stable, platform-independent digest for determinism checks.
//!
//! `std::hash::DefaultHasher` is seeded per process and explicitly not
//! stable across releases, so it cannot certify that two runs produced
//! byte-identical state. [`Digest`] is FNV-1a over 64 bits: tiny, fully
//! specified, and stable forever — exactly what the double-run determinism
//! tests need.

/// An incremental FNV-1a (64-bit) digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    /// Start a fresh digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold raw bytes into the digest.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Fold a `u64` (little-endian) into the digest.
    pub fn update_u64(&mut self, v: u64) -> &mut Self {
        self.update(&v.to_le_bytes())
    }

    /// Fold an `f64` by its exact bit pattern.
    pub fn update_f64(&mut self, v: f64) -> &mut Self {
        self.update_u64(v.to_bits())
    }

    /// The current 64-bit digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // FNV-1a test vectors: empty input and "a".
        assert_eq!(Digest::new().value(), 0xcbf29ce484222325);
        assert_eq!(Digest::new().update(b"a").value(), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut a = Digest::new();
        a.update(b"hello ").update(b"world");
        let mut b = Digest::new();
        b.update(b"hello world");
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn u64_and_f64_feed_exact_bits() {
        let mut a = Digest::new();
        a.update_u64(0x0102030405060708);
        let mut b = Digest::new();
        b.update(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.value(), b.value());
        let mut c = Digest::new();
        c.update_f64(1.5);
        let mut d = Digest::new();
        d.update_u64(1.5f64.to_bits());
        assert_eq!(c.value(), d.value());
    }
}
