//! Initiator-side timeout and retransmission policy for NVMe-oF capsules.
//!
//! The fabric can lose a command capsule (the target never sees the IO) or a
//! completion capsule (the IO finished but the initiator — and §3.6's
//! piggybacked credit — never learns). Either way the initiator arms a
//! per-command timer; on expiry it retransmits with exponential backoff,
//! bounded by [`RetryConfig::max_retries`], after which the command errors
//! out client-side. Retransmissions reuse the original command id, so the
//! target deduplicates replays and resends the cached completion instead of
//! re-executing the IO.

use gimbal_sim::SimDuration;

/// Timeout/backoff parameters for capsule retransmission.
#[derive(Clone, Copy, Debug)]
pub struct RetryConfig {
    /// Timer armed for the first transmission of a command.
    pub base_timeout: SimDuration,
    /// Ceiling on the per-attempt timer (backoff stops doubling here).
    pub max_timeout: SimDuration,
    /// Retransmissions allowed after the original attempt; past this the
    /// command fails client-side with a timeout error.
    pub max_retries: u32,
    /// Rack escalation threshold: once this many attempts at the same target
    /// have timed out, the initiator marks the node *suspect* and reroutes to
    /// a surviving replica instead of retransmitting again. Single-node
    /// engines (nowhere to reroute) ignore it and ride the retransmit rung
    /// to exhaustion.
    pub suspect_after: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        // Base ≈ 20× an unloaded remote 4 KB read (~100 µs), so timers only
        // fire on genuine loss or deep stalls; five doublings reach the cap.
        RetryConfig {
            base_timeout: SimDuration::from_millis(2),
            max_timeout: SimDuration::from_millis(32),
            max_retries: 5,
            // Two silent timeouts (~6 ms) distinguish a lost capsule from a
            // dead or partitioned node; beyond that, rerouting beats backoff.
            suspect_after: 2,
        }
    }
}

/// The next rung of the escalation ladder after a per-command timer fires:
/// retransmit → mark-node-suspect + reroute to a surviving replica →
/// terminal error only when no live replica holds the span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EscalationAction {
    /// Retransmit the same command id to the same target with backoff.
    Retransmit,
    /// Mark the target node suspect and re-issue the IO (fresh command id)
    /// to a surviving replica.
    SuspectAndReroute,
    /// No rung left: fail the IO with a typed timeout error.
    Terminal,
}

impl RetryConfig {
    /// Panic on a degenerate configuration.
    pub fn validate(&self) {
        assert!(self.base_timeout > SimDuration::ZERO, "zero base timeout");
        assert!(self.max_timeout >= self.base_timeout, "cap below base");
        assert!(
            self.suspect_after >= 1 && self.suspect_after <= self.max_retries.max(1),
            "suspect_after outside 1..=max_retries"
        );
    }

    /// The timer armed for attempt `n` (0 = the original transmission):
    /// `base × 2ⁿ`, capped at [`Self::max_timeout`].
    pub fn timeout_for(&self, attempt: u32) -> SimDuration {
        let factor = 1u64 << attempt.min(20);
        self.base_timeout
            .saturating_mul(factor)
            .min(self.max_timeout)
    }

    /// Whether attempt `n` exhausted the retry budget: a timer firing on
    /// attempt `max_retries` (0-based original + retries) fails the command.
    pub(crate) fn exhausted(&self, attempt: u32) -> bool {
        attempt >= self.max_retries
    }

    /// The escalation rung when the timer for attempt `attempt` fires.
    /// `can_reroute` is whether some *other* live replica holds the span —
    /// without one, the ladder degenerates to retransmit-until-exhausted
    /// (exactly the single-node protocol).
    pub fn escalate(&self, attempt: u32, can_reroute: bool) -> EscalationAction {
        if self.exhausted(attempt) {
            if can_reroute {
                EscalationAction::SuspectAndReroute
            } else {
                EscalationAction::Terminal
            }
        } else if can_reroute && attempt + 1 >= self.suspect_after {
            EscalationAction::SuspectAndReroute
        } else {
            EscalationAction::Retransmit
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let r = RetryConfig::default();
        r.validate();
        assert_eq!(r.timeout_for(0), SimDuration::from_millis(2));
        assert_eq!(r.timeout_for(1), SimDuration::from_millis(4));
        assert_eq!(r.timeout_for(3), SimDuration::from_millis(16));
        assert_eq!(r.timeout_for(4), SimDuration::from_millis(32));
        assert_eq!(r.timeout_for(10), SimDuration::from_millis(32));
        // Huge attempt counts must not overflow the shift.
        assert_eq!(r.timeout_for(u32::MAX), SimDuration::from_millis(32));
    }

    #[test]
    fn exhaustion_is_reached_after_max_retries() {
        let r = RetryConfig::default();
        assert!(!r.exhausted(0));
        assert!(!r.exhausted(4));
        assert!(r.exhausted(5));
        assert!(r.exhausted(6));
    }

    #[test]
    #[should_panic(expected = "cap below base")]
    fn validate_rejects_inverted_bounds() {
        RetryConfig {
            base_timeout: SimDuration::from_millis(4),
            max_timeout: SimDuration::from_millis(2),
            max_retries: 1,
            suspect_after: 1,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "suspect_after outside")]
    fn validate_rejects_suspect_threshold_past_exhaustion() {
        RetryConfig {
            suspect_after: 6,
            ..RetryConfig::default()
        }
        .validate();
    }

    #[test]
    fn escalation_ladder_climbs_in_order() {
        let r = RetryConfig::default(); // suspect_after = 2, max_retries = 5
                                        // With a surviving replica: retransmit once, then reroute.
        assert_eq!(r.escalate(0, true), EscalationAction::Retransmit);
        assert_eq!(r.escalate(1, true), EscalationAction::SuspectAndReroute);
        assert_eq!(r.escalate(5, true), EscalationAction::SuspectAndReroute);
        // Without one: the single-node protocol, terminal only at exhaustion.
        assert_eq!(r.escalate(0, false), EscalationAction::Retransmit);
        assert_eq!(r.escalate(4, false), EscalationAction::Retransmit);
        assert_eq!(r.escalate(5, false), EscalationAction::Terminal);
    }
}
