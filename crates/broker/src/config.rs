//! Broker configuration: the borrowing economy's knobs and its fixed terms.
//!
//! All quantities are integers (bytes, nanoseconds, or exact rationals as
//! numerator/denominator pairs) so that the ledger arithmetic is exact and
//! bit-reproducible. Rates are *per SSD*: each device contributes
//! `capacity_bps` of token accrual, split evenly across the tenants active on
//! it, which is exactly the strict per-tenant entitlement the broker layers
//! borrowing on top of.

use gimbal_fabric::types::MAX_IO_BYTES;
use gimbal_sim::SimDuration;

/// How the ledger treats a tenant whose bucket is empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BrokerMode {
    /// Strict per-tenant entitlement: an empty bucket always waits for its
    /// own refill. This is the baseline the bench compares against.
    Strict,
    /// An empty bucket may borrow headroom tokens from tenants running below
    /// their entitlement, with epoch-based repayment plus interest.
    Borrow,
}

/// Interest numerator: a borrower repays
/// `principal + ceil(principal * INTEREST_NUM / INTEREST_DEN)` (1/64).
const INTEREST_NUM: u64 = 1;
/// Interest denominator (see [`INTEREST_NUM`]).
const INTEREST_DEN: u64 = 64;
/// Cap on outstanding debt per (borrower, lender) pair, in bytes.
pub(crate) const MAX_DEBT_BYTES: u64 = 8 * 1024 * 1024;
/// Isolation-floor numerator: lending never drains a lender below
/// `burst_bytes * FLOOR_NUM / FLOOR_DEN` (1/8).
const FLOOR_NUM: u64 = 1;
/// Isolation-floor denominator (see [`FLOOR_NUM`]).
const FLOOR_DEN: u64 = 8;
/// Upper bound on migrations the placement layer emits per epoch.
pub(crate) const MAX_MOVES_PER_EPOCH: u32 = 1;

const _: () = assert!(INTEREST_DEN > 0);
const _: () = assert!(FLOOR_DEN > 0 && FLOOR_NUM <= FLOOR_DEN);
const _: () = assert!(MAX_MOVES_PER_EPOCH > 0);

/// Configuration for the inter-tenant token broker.
#[derive(Clone, Debug)]
pub struct BrokerConfig {
    /// Borrowing mode (strict entitlement vs. adaptive borrowing).
    pub mode: BrokerMode,
    /// Token accrual per SSD, in bytes per second, split evenly across the
    /// tenants active on that SSD.
    pub capacity_bps: u64,
    /// Per-account balance cap, in bytes. Accrual beyond the cap evaporates,
    /// which is what makes lending strictly better than idling for a lender.
    pub burst_bytes: u64,
    /// Settlement cadence: debts are repaid (and migrations applied) at
    /// every epoch boundary.
    pub epoch: SimDuration,
    /// Enable the Serifos-style placement layer (epoch-boundary migrations).
    pub placement: bool,
    /// Test hook: reverse the deterministic lender scan order. Exists so the
    /// divergence sanitizer suite can inject a lender-order flip from outside
    /// this crate and prove it is localized to the `broker` component.
    #[doc(hidden)]
    pub perturb_lender_order: bool,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            mode: BrokerMode::Borrow,
            capacity_bps: 512 * 1024 * 1024,
            burst_bytes: 2 * 1024 * 1024,
            epoch: SimDuration::from_millis(20),
            placement: false,
            perturb_lender_order: false,
        }
    }
}

impl BrokerConfig {
    /// The isolation floor in bytes: lending never drains a lender below it.
    pub(crate) fn floor_bytes(&self) -> u64 {
        self.burst_bytes / FLOOR_DEN * FLOOR_NUM
            + self.burst_bytes % FLOOR_DEN * FLOOR_NUM / FLOOR_DEN
    }

    /// Panic on nonsensical configurations.
    pub fn validate(&self) {
        assert!(self.capacity_bps > 0, "broker: capacity_bps must be > 0");
        assert!(
            self.burst_bytes >= MAX_IO_BYTES,
            "broker: burst_bytes {} must cover the largest IO ({} bytes) or \
             a full bucket could never admit it",
            self.burst_bytes,
            MAX_IO_BYTES
        );
        assert!(
            self.epoch > SimDuration::ZERO,
            "broker: epoch must be positive"
        );
    }
}

/// Interest owed on `principal` bytes, rounded up (so non-zero principal
/// always costs at least one byte).
pub(crate) fn interest_on(principal: u64) -> u64 {
    let num = principal as u128 * INTEREST_NUM as u128;
    (num.div_ceil(INTEREST_DEN as u128)).min(u64::MAX as u128) as u64
}

#[cfg(test)]
impl BrokerConfig {
    /// Strict-entitlement preset (the bench baseline): identical accrual,
    /// no borrowing, no placement.
    pub(crate) fn strict(&self) -> Self {
        let mut c = self.clone();
        c.mode = BrokerMode::Strict;
        c.placement = false;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        BrokerConfig::default().validate();
        BrokerConfig::default().strict().validate();
    }

    #[test]
    fn floor_is_exact_fraction() {
        let mut c = BrokerConfig {
            burst_bytes: 1024,
            ..BrokerConfig::default()
        };
        assert_eq!(c.floor_bytes(), 128);
        // Non-divisible burst still lands on floor(burst * num / den).
        c.burst_bytes = 1001;
        assert_eq!(c.floor_bytes(), 125);
        c.burst_bytes = 1023;
        assert_eq!(c.floor_bytes(), 127);
    }

    #[test]
    fn interest_rounds_up() {
        // 1/64
        assert_eq!(interest_on(0), 0);
        assert_eq!(interest_on(1), 1);
        assert_eq!(interest_on(64), 1);
        assert_eq!(interest_on(65), 2);
        assert_eq!(interest_on(128), 2);
    }

    #[test]
    #[should_panic(expected = "burst_bytes")]
    fn tiny_burst_rejected() {
        let c = BrokerConfig {
            burst_bytes: 4096,
            ..BrokerConfig::default()
        };
        c.validate();
    }
}
