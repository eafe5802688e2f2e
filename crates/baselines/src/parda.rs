//! PARDA-style client-side flow control.
//!
//! Each host regulates its own IO window from the *end-to-end* latency it
//! observes, FAST-TCP style:
//!
//! ```text
//! w(t+1) = (1 − γ)·w(t) + γ·( L / latency_avg · w(t) + β )
//! ```
//!
//! where `L` is the latency threshold (the operating point) and `β` the
//! proportional-share constant. The target runs plain FIFO. Strengths and
//! weaknesses both follow from the control location: latency stays moderate
//! (§5.4) but the feedback includes network and target-CPU noise, converges
//! slowly relative to microsecond-scale NVMe dynamics, and knows nothing of
//! per-IO cost — buffered writes look cheap, so write windows inflate and
//! starve readers on a fragmented device (§5.3, Fig 7f).

use gimbal_fabric::NvmeCompletion;
use gimbal_sim::{Ewma, SimTime};
use gimbal_switch::ClientPolicy;

/// Latency setpoint `L`, µs.
const LATENCY_THRESHOLD_US: f64 = 600.0;
/// Smoothing factor `γ`.
const GAMMA: f64 = 0.2;
/// Proportional-share constant `β` (larger ⇒ larger fair share).
const BETA: f64 = 2.0;
/// Latency EWMA weight.
const ALPHA: f64 = 0.25;
/// Minimum window (outstanding IOs).
const MIN_WINDOW: f64 = 1.0;
/// Maximum window (outstanding IOs).
const MAX_WINDOW: f64 = 128.0;
/// Initial window.
const INITIAL_WINDOW: f64 = 4.0;

/// Client-side PARDA window controller for one (tenant, SSD) pair, with the
/// parameters above.
#[derive(Clone, Debug)]
pub struct PardaClient {
    window: f64,
    latency: Ewma,
}

impl Default for PardaClient {
    fn default() -> Self {
        PardaClient {
            window: INITIAL_WINDOW,
            latency: Ewma::new(ALPHA),
        }
    }
}

impl ClientPolicy for PardaClient {
    fn can_submit(&mut self, outstanding: u32, _now: SimTime) -> bool {
        f64::from(outstanding) < self.window.floor().max(MIN_WINDOW)
    }

    fn on_completion(&mut self, cpl: &NvmeCompletion, now: SimTime) {
        // End-to-end latency: the timestamp the client encoded at issue
        // (piggybacked back on completion, §5.1) to receipt at the client.
        let lat_us = now.since(cpl.issued_at).as_micros_f64().max(1.0);
        let avg = self.latency.update(lat_us);
        let w = self.window;
        let target = LATENCY_THRESHOLD_US / avg * w + BETA;
        self.window = ((1.0 - GAMMA) * w + GAMMA * target).clamp(MIN_WINDOW, MAX_WINDOW);
    }

    fn allowance(&self) -> u32 {
        self.window.floor() as u32
    }

    fn name(&self) -> &'static str {
        "parda"
    }
}

#[cfg(test)]
impl PardaClient {
    /// Current fractional window.
    pub(crate) fn window(&self) -> f64 {
        self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gimbal_fabric::{CmdId, CmdStatus, IoType, SsdId, TenantId};
    use gimbal_sim::SimDuration;

    fn cpl_after(issued: SimTime, us: u64) -> (NvmeCompletion, SimTime) {
        let done = issued + SimDuration::from_micros(us);
        (
            NvmeCompletion {
                id: CmdId(0),
                tenant: TenantId(0),
                ssd: SsdId(0),
                opcode: IoType::Read,
                len: 4096,
                status: CmdStatus::Success,
                credit: None,
                issued_at: issued,
                completed_at: done,
            },
            done,
        )
    }

    #[test]
    fn low_latency_grows_window() {
        let mut p = PardaClient::default();
        let w0 = p.window();
        for i in 0..200 {
            let (c, at) = cpl_after(SimTime::from_micros(i * 100), 80);
            p.on_completion(&c, at);
        }
        assert!(p.window() > w0 * 4.0, "window grew: {}", p.window());
    }

    #[test]
    fn high_latency_shrinks_window() {
        let mut p = PardaClient::default();
        // Grow first.
        for i in 0..200 {
            let (c, at) = cpl_after(SimTime::from_micros(i * 100), 80);
            p.on_completion(&c, at);
        }
        let grown = p.window();
        for i in 200..400 {
            let (c, at) = cpl_after(SimTime::from_micros(i * 100), 3000);
            p.on_completion(&c, at);
        }
        assert!(p.window() < grown / 3.0, "window shrank: {}", p.window());
    }

    #[test]
    fn window_converges_near_setpoint_behavior() {
        // At latency exactly L the window should drift up by ~γβ per step
        // (probing), i.e. stay finite and not collapse.
        let mut p = PardaClient::default();
        for i in 0..500 {
            let (c, at) = cpl_after(SimTime::from_micros(i * 100), 600);
            p.on_completion(&c, at);
        }
        let w = p.window();
        assert!(w >= 4.0, "window stable at setpoint: {w}");
    }

    #[test]
    fn window_respects_bounds_and_gates_submission() {
        let mut p = PardaClient::default();
        for i in 0..1000 {
            let (c, at) = cpl_after(SimTime::from_micros(i * 100), 10_000);
            p.on_completion(&c, at);
        }
        // Fixed point under sustained latency ≫ L: w* = β/(1 − L/lat) ≈ 2.1.
        assert!(p.allowance() <= 3, "small window: {}", p.allowance());
        assert!(p.can_submit(0, SimTime::ZERO));
        assert!(!p.can_submit(p.allowance(), SimTime::ZERO));
        for i in 0..5000 {
            let (c, at) = cpl_after(SimTime::from_micros((1000 + i) * 100), 30);
            p.on_completion(&c, at);
        }
        assert!(p.window() <= 128.0, "capped at max: {}", p.window());
    }
}
