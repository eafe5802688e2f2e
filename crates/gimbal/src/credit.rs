//! End-to-end credit-based flow control — the client side (§3.6,
//! Algorithm 3).
//!
//! The target computes a per-tenant credit (allotted virtual slots × IO
//! count of the latest completed slot) and piggybacks it in every completion
//! capsule's first reservation field. The client submits an IO only while
//! its outstanding count is below the latest credit; otherwise the request
//! queues locally ("busy device"), which is what keeps queue buildup off the
//! switch ingress and bounds end-to-end latency (§5.4).

#![deny(clippy::cast_possible_truncation)]

use gimbal_fabric::NvmeCompletion;
use gimbal_sim::SimTime;
use gimbal_switch::ClientPolicy;

/// Client-side credit gate for one (tenant, SSD) pair.
#[derive(Debug, Clone)]
pub struct CreditClient {
    credit_total: u32,
}

impl CreditClient {
    /// Create with an initial grant (used until the first completion carries
    /// a real credit). Must be ≥ 1 so the very first IO can ever flow.
    pub fn new(initial_credit: u32) -> Self {
        CreditClient {
            credit_total: initial_credit.max(1),
        }
    }
}

impl Default for CreditClient {
    fn default() -> Self {
        CreditClient::new(16)
    }
}

impl ClientPolicy for CreditClient {
    fn can_submit(&mut self, outstanding: u32, _now: SimTime) -> bool {
        // Algorithm 3: submit while credit_tot > inflight.
        self.credit_total > outstanding
    }

    fn on_completion(&mut self, cpl: &NvmeCompletion, _now: SimTime) {
        if let Some(c) = cpl.credit {
            self.credit_total = c.max(1);
        }
    }

    fn on_timeout(&mut self, _now: SimTime) {
        // The completion carrying the latest grant is presumed lost, so the
        // stale local grant may overstate what the switch would allow. Halve
        // it (never below 1, Algorithm 3's liveness floor); the next
        // surviving completion's piggybacked credit re-synchronizes exactly.
        self.credit_total = (self.credit_total / 2).max(1);
    }

    fn allowance(&self) -> u32 {
        self.credit_total
    }

    fn name(&self) -> &'static str {
        "gimbal-credit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gimbal_fabric::{CmdId, CmdStatus, IoType, SsdId, TenantId};

    fn cpl(credit: Option<u32>) -> NvmeCompletion {
        NvmeCompletion {
            id: CmdId(0),
            tenant: TenantId(0),
            ssd: SsdId(0),
            opcode: IoType::Read,
            len: 4096,
            status: CmdStatus::Success,
            credit,
            issued_at: SimTime::ZERO,
            completed_at: SimTime::from_micros(80),
        }
    }

    #[test]
    fn gates_on_outstanding_vs_credit() {
        let mut c = CreditClient::new(4);
        assert!(c.can_submit(3, SimTime::ZERO));
        assert!(!c.can_submit(4, SimTime::ZERO));
        assert!(!c.can_submit(5, SimTime::ZERO));
    }

    #[test]
    fn completion_updates_credit() {
        let mut c = CreditClient::new(4);
        c.on_completion(&cpl(Some(64)), SimTime::ZERO);
        assert_eq!(c.allowance(), 64);
        assert!(c.can_submit(63, SimTime::ZERO));
        // Credit can shrink, throttling the client.
        c.on_completion(&cpl(Some(2)), SimTime::ZERO);
        assert!(!c.can_submit(2, SimTime::ZERO));
    }

    #[test]
    fn missing_credit_field_keeps_previous_grant() {
        let mut c = CreditClient::new(8);
        c.on_completion(&cpl(None), SimTime::ZERO);
        assert_eq!(c.allowance(), 8);
    }

    #[test]
    fn never_deadlocks_at_zero() {
        let mut c = CreditClient::new(0);
        assert!(c.can_submit(0, SimTime::ZERO), "minimum one credit");
        c.on_completion(&cpl(Some(0)), SimTime::ZERO);
        assert!(c.can_submit(0, SimTime::ZERO));
    }

    #[test]
    fn timeout_halves_the_grant_and_a_completion_resyncs() {
        let mut c = CreditClient::new(16);
        c.on_timeout(SimTime::ZERO);
        assert_eq!(c.allowance(), 8, "loss signal shrinks the window");
        // Repeated timeouts floor at 1: flow control never wedges.
        for _ in 0..10 {
            c.on_timeout(SimTime::ZERO);
        }
        assert_eq!(c.allowance(), 1);
        assert!(c.can_submit(0, SimTime::ZERO));
        // The next surviving completion re-synchronizes exactly.
        c.on_completion(&cpl(Some(32)), SimTime::ZERO);
        assert_eq!(c.allowance(), 32);
    }
}
