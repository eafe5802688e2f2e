//! Dynamic write-cost estimation (§3.4).
//!
//! The *write cost* is the ratio between achieved read and write bandwidths —
//! how many read-equivalents one byte of write consumes inside the device.
//! It cannot be read off the SSD, so Gimbal calibrates it online in an ADMI
//! (Additive-Decrease, Multiplicative-Increase) fashion from write latency:
//!
//! * while the write EWMA latency stays below `Thresh_min` (writes absorbed
//!   by the device's DRAM write buffer), the cost steps down by `δ` — all
//!   the way to 1.0, crediting the device's write optimization;
//! * the moment write latency rises, the cost jumps to the midpoint of the
//!   current value and `write_cost_worst`, converging to the worst case in a
//!   few periods.

#![deny(clippy::cast_possible_truncation)]

use crate::params::{Params, DELTA, WRITE_COST_PERIOD, WRITE_COST_WORST};
use gimbal_fabric::SsdId;
use gimbal_sim::SimTime;
use gimbal_telemetry::{EventKind, TraceHandle};

/// Periodic ADMI estimator of the SSD write cost.
#[derive(Clone, Debug)]
pub struct WriteCostEstimator {
    cost: f64,
    next_update: SimTime,
    writes_in_period: u64,
    /// Ablation: never recalibrate (ReFlex-style static worst-case tax).
    frozen: bool,
    trace: TraceHandle,
    trace_ssd: SsdId,
}

impl WriteCostEstimator {
    /// Create an estimator starting at the worst case (the paper uses the
    /// datasheet read:write IOPS ratio as the baseline).
    pub fn new(params: &Params) -> Self {
        WriteCostEstimator {
            cost: WRITE_COST_WORST,
            next_update: SimTime::ZERO + WRITE_COST_PERIOD,
            writes_in_period: 0,
            frozen: params.static_write_cost,
            trace: TraceHandle::disabled(),
            trace_ssd: SsdId(0),
        }
    }

    /// Attach a telemetry handle; events carry `ssd` as their origin.
    pub fn attach_trace(&mut self, trace: TraceHandle, ssd: SsdId) {
        self.trace = trace;
        self.trace_ssd = ssd;
    }

    /// Current write cost, in `[1, WRITE_COST_WORST]`.
    pub(crate) fn cost(&self) -> f64 {
        self.cost
    }

    /// Note a write completion (updates happen at most once per period and
    /// only when writes actually flowed).
    pub fn on_write_completion(&mut self, now: SimTime, write_ewma_below_min: bool) {
        if self.frozen {
            return;
        }
        self.writes_in_period += 1;
        if now < self.next_update {
            return;
        }
        self.next_update = now + WRITE_COST_PERIOD;
        if self.writes_in_period == 0 {
            return;
        }
        self.writes_in_period = 0;
        let old_cost = self.cost;
        if write_ewma_below_min {
            // Writes are served from the buffer: credit them down to parity
            // with reads.
            self.cost = (self.cost - DELTA).max(1.0);
        } else {
            // Latency is up: converge quickly toward the worst case.
            self.cost = (self.cost + WRITE_COST_WORST) / 2.0;
        }
        self.trace.record(
            now,
            self.trace_ssd,
            None,
            EventKind::WriteCostStep {
                old_cost,
                new_cost: self.cost,
                below_min: write_ewma_below_min,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> WriteCostEstimator {
        WriteCostEstimator::new(&Params::default())
    }

    /// Feed `n` periods of completions with the given latency condition.
    fn feed(e: &mut WriteCostEstimator, start_ms: u64, periods: u64, below: bool) -> u64 {
        let mut t = start_ms;
        for _ in 0..periods {
            // A couple of completions inside each 10 ms period.
            e.on_write_completion(SimTime::from_millis(t + 1), below);
            e.on_write_completion(SimTime::from_millis(t + 11), below);
            t += 20;
        }
        t
    }

    #[test]
    fn starts_at_worst() {
        assert_eq!(est().cost(), 9.0);
    }

    #[test]
    fn buffered_writes_decay_cost_to_one() {
        let mut e = est();
        feed(&mut e, 0, 40, true);
        assert_eq!(e.cost(), 1.0, "additive decrease reaches parity");
    }

    #[test]
    fn latency_rise_converges_to_worst_quickly() {
        let mut e = est();
        let t = feed(&mut e, 0, 40, true);
        assert_eq!(e.cost(), 1.0);
        // Two writers now exceed the buffer drain rate (§5.5): latency up.
        feed(&mut e, t, 6, false);
        assert!(e.cost() > 8.5, "multiplicative increase: {}", e.cost());
    }

    #[test]
    fn updates_are_periodic_not_per_completion() {
        let mut e = est();
        // Many completions inside one period only move the cost once.
        for _ in 0..100 {
            e.on_write_completion(SimTime::from_millis(11), true);
        }
        assert_eq!(e.cost(), 9.0 - 0.5);
    }

    #[test]
    fn static_ablation_freezes_cost() {
        let mut e = WriteCostEstimator::new(&Params {
            static_write_cost: true,
            ..Params::default()
        });
        for i in 0..100 {
            e.on_write_completion(SimTime::from_millis(i * 20), true);
        }
        assert_eq!(e.cost(), 9.0, "static cost never leaves the worst case");
    }

    #[test]
    fn cost_stays_in_bounds() {
        let mut e = est();
        let t = feed(&mut e, 0, 100, true);
        assert!(e.cost() >= 1.0);
        feed(&mut e, t, 100, false);
        assert!(e.cost() <= 9.0);
    }
}
