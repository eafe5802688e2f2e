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

/// PARDA window-control parameters.
#[derive(Clone, Copy, Debug)]
pub struct PardaConfig {
    /// Latency setpoint `L`.
    pub latency_threshold_us: f64,
    /// Smoothing factor `γ`.
    pub gamma: f64,
    /// Proportional-share constant `β` (larger ⇒ larger fair share).
    pub beta: f64,
    /// Latency EWMA weight.
    pub alpha: f64,
    /// Window bounds.
    pub min_window: f64,
    /// Maximum window (outstanding IOs).
    pub max_window: f64,
    /// Initial window.
    pub initial_window: f64,
}

impl Default for PardaConfig {
    fn default() -> Self {
        PardaConfig {
            latency_threshold_us: 600.0,
            gamma: 0.2,
            beta: 2.0,
            alpha: 0.25,
            min_window: 1.0,
            max_window: 128.0,
            initial_window: 4.0,
        }
    }
}

/// Client-side PARDA window controller for one (tenant, SSD) pair.
#[derive(Clone, Debug)]
pub struct PardaClient {
    cfg: PardaConfig,
    window: f64,
    latency: Ewma,
}

impl PardaClient {
    /// Create with the given configuration.
    pub fn new(cfg: PardaConfig) -> Self {
        PardaClient {
            window: cfg.initial_window,
            latency: Ewma::new(cfg.alpha),
            cfg,
        }
    }

    /// Current fractional window.
    pub fn window(&self) -> f64 {
        self.window
    }
}

impl Default for PardaClient {
    fn default() -> Self {
        Self::new(PardaConfig::default())
    }
}

impl ClientPolicy for PardaClient {
    fn can_submit(&mut self, outstanding: u32, _now: SimTime) -> bool {
        f64::from(outstanding) < self.window.floor().max(self.cfg.min_window)
    }

    fn on_completion(&mut self, cpl: &NvmeCompletion, now: SimTime) {
        // End-to-end latency: the timestamp the client encoded at issue
        // (piggybacked back on completion, §5.1) to receipt at the client.
        let lat_us = now.since(cpl.issued_at).as_micros_f64().max(1.0);
        let avg = self.latency.update(lat_us);
        let w = self.window;
        let target = self.cfg.latency_threshold_us / avg * w + self.cfg.beta;
        self.window = ((1.0 - self.cfg.gamma) * w + self.cfg.gamma * target)
            .clamp(self.cfg.min_window, self.cfg.max_window);
    }

    fn allowance(&self) -> u32 {
        self.window.floor() as u32
    }

    fn name(&self) -> &'static str {
        "parda"
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
