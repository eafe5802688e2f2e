//! Explicit narrowing-conversion helpers.
//!
//! Accounting and credit state (slot counts, queue depths, virtual-slot
//! budgets) flows between `usize` collection sizes, `u64` accumulators and
//! the `u32` fields carried in events and telemetry. A bare `value as u32`
//! silently truncates when the invariant ("this never exceeds 4 billion")
//! is wrong, and the D7 lint forbids it in accounting paths. These helpers
//! make the policy explicit: truncation panics in debug builds and
//! saturates in release builds, so a broken invariant surfaces in tests
//! instead of corrupting fairness arithmetic.

/// Narrow a `usize` (collection size, slot index) to `u32`.
///
/// Debug builds panic on truncation; release builds saturate at
/// `u32::MAX`.
#[inline]
pub fn usize_to_u32(v: usize) -> u32 {
    debug_assert!(v <= u32::MAX as usize, "usize->u32 truncation: {v}");
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// Narrow a `u64` accumulator to `u32`.
///
/// Debug builds panic on truncation; release builds saturate at
/// `u32::MAX`.
#[inline]
pub fn u64_to_u32(v: u64) -> u32 {
    debug_assert!(v <= u64::from(u32::MAX), "u64->u32 truncation: {v}");
    u32::try_from(v).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_values_pass_through() {
        assert_eq!(usize_to_u32(0), 0);
        assert_eq!(usize_to_u32(4_000_000_000), 4_000_000_000);
        assert_eq!(u64_to_u32(u64::from(u32::MAX)), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "truncation")]
    fn debug_truncation_panics() {
        let _ = u64_to_u32(u64::from(u32::MAX) + 1);
    }
}
