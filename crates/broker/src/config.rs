//! Broker configuration: the borrowing economy's knobs.
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
    /// Interest numerator: a borrower repays
    /// `principal + ceil(principal * interest_num / interest_den)`.
    pub interest_num: u64,
    /// Interest denominator (see [`BrokerConfig::interest_num`]).
    pub interest_den: u64,
    /// Cap on outstanding debt per (borrower, lender) pair, in bytes.
    pub max_debt_bytes: u64,
    /// Isolation-floor numerator: lending never drains a lender below
    /// `burst_bytes * floor_num / floor_den`.
    pub floor_num: u64,
    /// Isolation-floor denominator (see [`BrokerConfig::floor_num`]).
    pub floor_den: u64,
    /// Enable the Serifos-style placement layer (epoch-boundary migrations).
    pub placement: bool,
    /// Upper bound on migrations emitted per epoch.
    pub max_moves_per_epoch: u32,
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
            interest_num: 1,
            interest_den: 64,
            max_debt_bytes: 8 * 1024 * 1024,
            floor_num: 1,
            floor_den: 8,
            placement: false,
            max_moves_per_epoch: 1,
            perturb_lender_order: false,
        }
    }
}

impl BrokerConfig {
    /// The isolation floor in bytes: lending never drains a lender below it.
    pub(crate) fn floor_bytes(&self) -> u64 {
        self.burst_bytes / self.floor_den * self.floor_num
            + self.burst_bytes % self.floor_den * self.floor_num / self.floor_den
    }

    /// Interest owed on `principal` bytes, rounded up (so non-zero principal
    /// with non-zero interest rate always costs at least one byte).
    pub(crate) fn interest_on(&self, principal: u64) -> u64 {
        if self.interest_num == 0 || principal == 0 {
            return 0;
        }
        let num = principal as u128 * self.interest_num as u128;
        let den = self.interest_den as u128;
        (num.div_ceil(den)).min(u64::MAX as u128) as u64
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
        assert!(self.interest_den > 0, "broker: interest_den must be > 0");
        assert!(self.floor_den > 0, "broker: floor_den must be > 0");
        assert!(
            self.floor_num <= self.floor_den,
            "broker: isolation floor {}/{} exceeds the full burst",
            self.floor_num,
            self.floor_den
        );
        if self.placement {
            assert!(
                self.max_moves_per_epoch > 0,
                "broker: placement enabled with max_moves_per_epoch = 0"
            );
        }
    }
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
            floor_num: 1,
            floor_den: 8,
            ..BrokerConfig::default()
        };
        assert_eq!(c.floor_bytes(), 128);
        // Non-divisible burst still lands on floor(burst * num / den).
        c.burst_bytes = 1000;
        c.floor_num = 1;
        c.floor_den = 3;
        assert_eq!(c.floor_bytes(), 333);
    }

    #[test]
    fn interest_rounds_up() {
        let c = BrokerConfig::default(); // 1/64
        assert_eq!(c.interest_on(0), 0);
        assert_eq!(c.interest_on(1), 1);
        assert_eq!(c.interest_on(64), 1);
        assert_eq!(c.interest_on(65), 2);
        assert_eq!(c.interest_on(128), 2);
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
