//! Token bucket primitive.
//!
//! Two usage styles are supported, both needed by the workspace:
//!
//! * **Self-refilling** ([`TokenBucket::with_rate`] + [`TokenBucket::refill`]):
//!   tokens accrue continuously at a byte rate, capped at the bucket size.
//!   Used for client-side rate limiting in workloads (Fig 9's 200/60 MB/s
//!   caps) and the blobstore rate limiter.
//! * **Externally fed** ([`TokenBucket::deposit`]): the caller distributes
//!   tokens explicitly and receives back any overflow beyond the cap. This is
//!   what Gimbal's *dual* token bucket needs (§3.3 / Algorithm 4): tokens are
//!   generated from the target rate, split between the read and write buckets
//!   in cost proportion, and overflow transfers to the sibling bucket.

#![deny(clippy::cast_possible_truncation)]

use crate::time::{SimDuration, SimTime};

/// A byte-denominated token bucket.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    tokens: f64,
    capacity: f64,
    /// Refill rate in bytes/second for self-refilling buckets; 0 if fed
    /// externally.
    rate: f64,
    last_refill: SimTime,
}

impl TokenBucket {
    /// A bucket refilled continuously at `bytes_per_sec`, holding at most
    /// `capacity` bytes of tokens. Starts full.
    pub fn with_rate(bytes_per_sec: f64, capacity: u64) -> Self {
        assert!(bytes_per_sec >= 0.0 && capacity > 0);
        TokenBucket {
            tokens: capacity as f64,
            capacity: capacity as f64,
            rate: bytes_per_sec,
            last_refill: SimTime::ZERO,
        }
    }

    /// An externally fed bucket (no internal refill). Starts full so the
    /// first IO after idle is never delayed.
    pub fn external(capacity: u64) -> Self {
        assert!(capacity > 0);
        TokenBucket {
            tokens: capacity as f64,
            capacity: capacity as f64,
            rate: 0.0,
            last_refill: SimTime::ZERO,
        }
    }

    /// Accrue tokens for the time elapsed since the last refill. No-op for
    /// externally fed buckets.
    pub fn refill(&mut self, now: SimTime) {
        if self.rate > 0.0 && now > self.last_refill {
            let dt = now.since(self.last_refill).as_secs_f64();
            self.tokens = (self.tokens + self.rate * dt).min(self.capacity);
        }
        self.last_refill = self.last_refill.max(now);
    }

    /// Deposit `amount` tokens, returning the overflow that did not fit.
    pub fn deposit(&mut self, amount: f64) -> f64 {
        let space = self.capacity - self.tokens;
        if amount <= space {
            self.tokens += amount;
            0.0
        } else {
            self.tokens = self.capacity;
            amount - space
        }
    }

    /// Current token count (bytes).
    pub fn tokens(&self) -> f64 {
        self.tokens
    }

    /// Bucket capacity (bytes).
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Whether `size` bytes could be consumed right now.
    pub fn can_consume(&self, size: u64) -> bool {
        self.tokens >= size as f64
    }

    /// Consume `size` bytes of tokens if available. Returns whether the
    /// consumption happened.
    pub fn try_consume(&mut self, size: u64) -> bool {
        if self.can_consume(size) {
            self.tokens -= size as f64;
            true
        } else {
            false
        }
    }

    /// Discard all tokens (Algorithm 1: on entering the *overloaded* state
    /// Gimbal "discards the remaining tokens in the buckets to avoid a bursty
    /// submission").
    pub fn discard(&mut self) {
        self.tokens = 0.0;
    }

    /// For a self-refilling bucket: the earliest instant at which `size`
    /// tokens will be available, or `None` if they already are / never will.
    pub fn time_until_available(&self, now: SimTime, size: u64) -> Option<SimTime> {
        if self.can_consume(size) {
            return None;
        }
        if self.rate <= 0.0 || size as f64 > self.capacity {
            return None;
        }
        let deficit = size as f64 - self.tokens;
        let secs = deficit / self.rate;
        Some(now + SimDuration::from_secs_f64(secs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_refill_accrues_linearly() {
        let mut b = TokenBucket::with_rate(1_000_000.0, 10_000); // 1 MB/s, 10 KB cap
        assert!(b.try_consume(10_000));
        assert!(!b.can_consume(1));
        // 5 ms at 1 MB/s = 5000 bytes.
        b.refill(SimTime::from_millis(5));
        assert!((b.tokens() - 5_000.0).abs() < 1.0);
        assert!(b.try_consume(5_000));
    }

    #[test]
    fn refill_caps_at_capacity() {
        let mut b = TokenBucket::with_rate(1e9, 1_000);
        b.refill(SimTime::from_secs(10));
        assert_eq!(b.tokens(), 1_000.0);
    }

    #[test]
    fn deposit_returns_overflow() {
        let mut b = TokenBucket::external(1_000);
        assert!(b.try_consume(1_000));
        assert_eq!(b.deposit(600.0), 0.0);
        assert_eq!(b.deposit(600.0), 200.0);
        assert_eq!(b.tokens(), 1_000.0);
    }

    #[test]
    fn discard_empties() {
        let mut b = TokenBucket::external(1_000);
        b.discard();
        assert_eq!(b.tokens(), 0.0);
        assert!(!b.can_consume(1));
    }

    #[test]
    fn consume_failure_leaves_tokens() {
        let mut b = TokenBucket::external(1_000);
        assert!(!b.try_consume(2_000));
        assert_eq!(b.tokens(), 1_000.0);
    }

    #[test]
    fn time_until_available() {
        let mut b = TokenBucket::with_rate(1_000_000.0, 100_000);
        b.refill(SimTime::ZERO);
        assert!(b.try_consume(100_000));
        let now = SimTime::ZERO;
        let at = b.time_until_available(now, 50_000).unwrap();
        assert_eq!(at.as_nanos(), 50_000_000); // 50 ms at 1 MB/s
        assert!(b.time_until_available(now, 200_000).is_none(), "over cap");
        b.refill(at);
        assert!(b.time_until_available(at, 50_000).is_none());
    }
}
