//! Delay-based SSD congestion control (§3.2, Algorithm 1's
//! `update_latency`).
//!
//! The SSD is treated as a black-box networked system; the only signal is
//! per-completion latency. A per-IO-type [`LatencyMonitor`] smooths latencies
//! with an EWMA (`α_D`) and compares against a *dynamically scaled*
//! threshold:
//!
//! * the threshold continuously decays toward the EWMA latency (gain `α_T`),
//!   so when latency starts climbing it soon crosses the threshold and a
//!   congestion signal fires promptly;
//! * on a congestion signal the threshold springs to the midpoint of itself
//!   and `Thresh_max` (Reno-flavoured), so signals fire more frequently as
//!   latency approaches the ceiling;
//! * EWMA beyond `Thresh_max` means *overloaded*, below `Thresh_min` means
//!   *under-utilized*.

#![deny(clippy::cast_possible_truncation)]

use crate::params::Params;
use gimbal_sim::{Ewma, SimDuration};

/// The four congestion states of §3.3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CongestionState {
    /// `EWMA ≥ Thresh_max`: the device is past saturation.
    Overloaded,
    /// `Thresh_cur ≤ EWMA < Thresh_max`.
    Congested,
    /// `Thresh_min ≤ EWMA < Thresh_cur`.
    CongestionAvoidance,
    /// `EWMA < Thresh_min`: headroom is available.
    Underutilized,
}

impl CongestionState {
    /// The telemetry mirror of this state. `gimbal-telemetry` sits below
    /// this crate in the dependency DAG, so it carries its own copy of the
    /// state enum; this is the single conversion point.
    pub(crate) fn trace_state(self) -> gimbal_telemetry::CongState {
        match self {
            CongestionState::Overloaded => gimbal_telemetry::CongState::Overloaded,
            CongestionState::Congested => gimbal_telemetry::CongState::Congested,
            CongestionState::CongestionAvoidance => {
                gimbal_telemetry::CongState::CongestionAvoidance
            }
            CongestionState::Underutilized => gimbal_telemetry::CongState::Underutilized,
        }
    }
}

/// Per-IO-type latency monitor implementing Algorithm 1's `update_latency`.
#[derive(Clone, Debug)]
pub struct LatencyMonitor {
    ewma: Ewma,
    thresh: f64,
    thresh_min: f64,
    thresh_max: f64,
    alpha_t: f64,
    /// Ablation: when set, the threshold never adapts.
    fixed: bool,
}

impl LatencyMonitor {
    /// Create a monitor from the switch parameters. The dynamic threshold
    /// starts at `Thresh_max` (maximally permissive; it decays toward the
    /// observed latency within a few completions).
    pub(crate) fn new(params: &Params) -> Self {
        let (thresh, fixed) = match params.fixed_threshold {
            Some(t) => (t.as_nanos() as f64, true),
            None => (params.thresh_max.as_nanos() as f64, false),
        };
        LatencyMonitor {
            ewma: Ewma::new(params.alpha_d),
            thresh,
            thresh_min: params.thresh_min.as_nanos() as f64,
            thresh_max: params.thresh_max.as_nanos() as f64,
            alpha_t: params.alpha_t,
            fixed,
        }
    }

    /// Feed one completion latency; returns the resulting congestion state.
    pub(crate) fn update(&mut self, latency: SimDuration) -> CongestionState {
        let ewma = self.ewma.update(latency.as_nanos() as f64);
        if self.fixed {
            // Ablation baseline: a static threshold with no adaptation.
            return if ewma >= self.thresh_max {
                CongestionState::Overloaded
            } else if ewma >= self.thresh {
                CongestionState::Congested
            } else if ewma >= self.thresh_min {
                CongestionState::CongestionAvoidance
            } else {
                CongestionState::Underutilized
            };
        }
        let state = if ewma >= self.thresh_max {
            // Algorithm 1 line 5: pin the threshold at the ceiling.
            self.thresh = self.thresh_max;
            CongestionState::Overloaded
        } else if ewma >= self.thresh {
            // Congestion signal: spring toward the ceiling so repeated
            // congestion fires signals more frequently.
            self.thresh = (self.thresh + self.thresh_max) / 2.0;
            CongestionState::Congested
        } else if ewma >= self.thresh_min {
            self.thresh -= self.alpha_t * (self.thresh - ewma);
            CongestionState::CongestionAvoidance
        } else {
            self.thresh -= self.alpha_t * (self.thresh - ewma);
            CongestionState::Underutilized
        };
        // The threshold never drops below the congestion-free bound.
        self.thresh = self.thresh.max(self.thresh_min);
        state
    }

    /// Current EWMA latency in nanoseconds (0 before any sample).
    pub fn ewma_ns(&self) -> f64 {
        self.ewma.get_or(0.0)
    }

    /// Current dynamic threshold in nanoseconds.
    pub fn thresh_ns(&self) -> f64 {
        self.thresh
    }

    /// Whether the EWMA is below `Thresh_min` (used by the write-cost
    /// estimator, §3.4).
    pub fn below_min(&self) -> bool {
        self.ewma.get().is_none_or(|e| e < self.thresh_min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> LatencyMonitor {
        LatencyMonitor::new(&Params::default())
    }

    #[test]
    fn low_latency_is_underutilized() {
        let mut m = monitor();
        for _ in 0..10 {
            assert_eq!(
                m.update(SimDuration::from_micros(80)),
                CongestionState::Underutilized
            );
        }
        assert!(m.below_min());
    }

    #[test]
    fn moderate_latency_is_congestion_avoidance() {
        let mut m = monitor();
        let mut last = CongestionState::Underutilized;
        for _ in 0..50 {
            last = m.update(SimDuration::from_micros(600));
        }
        assert_eq!(last, CongestionState::CongestionAvoidance);
        assert!(!m.below_min());
    }

    #[test]
    fn threshold_decays_toward_ewma() {
        let mut m = monitor();
        let t0 = m.thresh_ns();
        m.update(SimDuration::from_micros(400));
        assert!(m.thresh_ns() < t0, "threshold should chase the EWMA down");
        // It converges near the EWMA but never below Thresh_min.
        for _ in 0..100 {
            m.update(SimDuration::from_micros(400));
        }
        let us = m.thresh_ns() / 1e3;
        assert!((390.0..460.0).contains(&us), "thresh {us}us");
    }

    #[test]
    fn rising_latency_triggers_congestion_then_threshold_springs_up() {
        let mut m = monitor();
        for _ in 0..50 {
            m.update(SimDuration::from_micros(500));
        }
        let before = m.thresh_ns();
        // Latency doubles: the EWMA crosses the (decayed) threshold.
        let s = m.update(SimDuration::from_micros(2000));
        assert_eq!(s, CongestionState::Congested);
        assert!(m.thresh_ns() > before, "threshold springs toward the max");
    }

    #[test]
    fn beyond_max_is_overloaded() {
        let mut m = monitor();
        let s1 = m.update(SimDuration::from_millis(5));
        assert_eq!(s1, CongestionState::Overloaded);
        assert_eq!(m.thresh_ns(), 1_500_000.0, "pinned at Thresh_max");
    }

    #[test]
    fn recovery_after_overload() {
        let mut m = monitor();
        for _ in 0..5 {
            m.update(SimDuration::from_millis(5));
        }
        // Load drains; latency falls back to unloaded levels.
        let mut state = CongestionState::Overloaded;
        for _ in 0..20 {
            state = m.update(SimDuration::from_micros(100));
        }
        assert_eq!(state, CongestionState::Underutilized);
    }

    #[test]
    fn threshold_never_below_min() {
        let mut m = monitor();
        for _ in 0..200 {
            m.update(SimDuration::from_micros(10));
        }
        assert!(m.thresh_ns() >= 250_000.0);
    }

    #[test]
    fn fixed_threshold_ablation_never_adapts() {
        let mut m = LatencyMonitor::new(&Params {
            fixed_threshold: Some(SimDuration::from_millis(1)),
            ..Params::default()
        });
        let t0 = m.thresh_ns();
        assert_eq!(t0, 1_000_000.0);
        for _ in 0..100 {
            m.update(SimDuration::from_micros(400));
        }
        assert_eq!(m.thresh_ns(), t0, "fixed threshold must not move");
        // Crossing it still yields a congestion signal.
        for _ in 0..10 {
            m.update(SimDuration::from_micros(1_400));
        }
        assert_eq!(
            m.update(SimDuration::from_micros(1_400)),
            CongestionState::Congested
        );
    }

    #[test]
    fn congestion_fires_more_frequently_near_the_ceiling() {
        // After a congestion signal the threshold is closer to the EWMA's
        // path to Thresh_max, so a subsequent smaller increase re-triggers.
        let mut m = monitor();
        for _ in 0..50 {
            m.update(SimDuration::from_micros(700));
        }
        assert_eq!(
            m.update(SimDuration::from_micros(1400)),
            CongestionState::Congested
        );
        // EWMA is now ~1050 µs; threshold sprang to ~(1050..1500) midpoint.
        // Holding latency at 1400 keeps the EWMA above the decaying
        // threshold region quickly again.
        let mut congested = 0;
        for _ in 0..5 {
            if m.update(SimDuration::from_micros(1400)) == CongestionState::Congested {
                congested += 1;
            }
        }
        assert!(congested >= 2, "repeated congestion signals: {congested}");
    }
}
