//! Host compute model: CPU cores and per-IO processing costs.
//!
//! The Stingray's ARM A72 cores (and the Xeon cores of a server JBOF) are
//! modeled as serial processors with busy-until horizons. Every NVMe-oF
//! request charges CPU *cycles* on the core that runs its pipeline — once at
//! submission (capsule parsing, scheduling, NVMe command construction) and
//! once at completion (CQE handling, response capsule construction). This is
//! the resource that makes SmartNIC JBOFs "wimpy" (§2.4): when cycles × IOPS
//! exceeds a core, added latency and lost bandwidth follow.
//!
//! Cycle accounting uses the paper's own unit from Table 1: **125 cycles =
//! 1 µs**. Reporting costs in these units lets the Table 1 reproduction print
//! directly comparable numbers.

// Unit tests may pin exact float values; the library build keeps float_cmp.
#![cfg_attr(test, allow(clippy::float_cmp))]

use gimbal_sim::{SimDuration, SimTime};

/// The paper's cycle unit (Table 1: "125cycles=1usec").
pub const CYCLES_PER_US: f64 = 125.0;

/// Convert cycles to a duration.
pub(crate) fn cycles_to_duration(cycles: f64) -> SimDuration {
    let ns = (cycles / CYCLES_PER_US * 1000.0).round() as u64;
    SimDuration::from_nanos(ns)
}

/// A serial CPU core with a busy-until horizon. Work items queue FIFO.
#[derive(Clone, Debug)]
pub struct Core {
    busy_until: SimTime,
    busy_accum: SimDuration,
}

impl Core {
    /// A fresh, idle core.
    pub fn new() -> Self {
        Core {
            busy_until: SimTime::ZERO,
            busy_accum: SimDuration::ZERO,
        }
    }

    /// Execute `cycles` of work arriving at `now`; returns the instant the
    /// work finishes (after queueing behind earlier work).
    pub fn process(&mut self, now: SimTime, cycles: f64) -> SimTime {
        let dur = cycles_to_duration(cycles);
        let start = now.max(self.busy_until);
        let done = start + dur;
        self.busy_until = done;
        self.busy_accum += dur;
        done
    }

    /// The instant the core becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total busy time accumulated (for utilization reporting).
    pub fn busy_time(&self) -> SimDuration {
        self.busy_accum
    }
}

impl Default for Core {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-IO CPU costs of the NVMe-oF target software, in Table 1 cycle units.
///
/// `submit`/`complete` are the application-layer costs Table 1a reports; the
/// `transport` term is the RDMA/SPDK framework cost per IO (derived from the
/// NULL-device IOPS of Table 1b); `nvme_driver` is the extra cost of driving
/// a real NVMe SSD (doorbells, CQ polling) — zero in NULL-device runs;
/// `per_kb` models payload-dependent work (SGL segmentation, DMA setup),
/// which is what bends the large-IO curves of Fig 16.
#[derive(Clone, Copy, Debug)]
pub struct CpuCost {
    /// Application submit-path cycles.
    pub submit: f64,
    /// Application completion-path cycles.
    pub complete: f64,
    /// Transport/framework cycles per IO.
    pub transport: f64,
    /// NVMe driver cycles per IO against a real device.
    pub nvme_driver: f64,
    /// Additional cycles per KiB of payload.
    pub per_kb: f64,
}

impl CpuCost {
    /// Vanilla SPDK NVMe-oF target on a Stingray ARM A72 core, loaded
    /// (QD≈32) costs from Table 1a, calibrated so the NULL-device test
    /// reproduces Table 1b's 937 KIOPS/core.
    pub fn arm_vanilla() -> Self {
        CpuCost {
            submit: 21.0,
            complete: 17.0,
            // 937 KIOPS ⇒ 1.067 µs/IO ⇒ 133.4 cycles; minus submit+complete.
            transport: 95.4,
            // A real-SSD 4 KB read costs ~1.98 µs/IO on an ARM core (Fig 3:
            // 3 cores ≈ 1513 KIOPS) ⇒ +114 cycles of driver work.
            nvme_driver: 114.0,
            per_kb: 1.7,
        }
    }

    /// Gimbal on an ARM A72 core: Table 1a's loaded submit/complete costs.
    pub fn arm_gimbal() -> Self {
        CpuCost {
            submit: 30.0,
            complete: 25.0,
            ..Self::arm_vanilla()
        }
    }

    /// Unloaded (QD1) application costs, Table 1a's first block.
    pub fn arm_vanilla_qd1() -> Self {
        CpuCost {
            submit: 32.0,
            complete: 16.0,
            ..Self::arm_vanilla()
        }
    }

    /// Gimbal unloaded (QD1) costs.
    pub fn arm_gimbal_qd1() -> Self {
        CpuCost {
            submit: 52.0,
            complete: 22.0,
            ..Self::arm_vanilla()
        }
    }

    /// Vanilla SPDK on a Xeon E5-2620 v4 core (§5.8: 1533 KIOPS NULL-device
    /// ⇒ 0.652 µs/IO; Fig 3: ~757 KIOPS/core against a real SSD).
    pub fn xeon_vanilla() -> Self {
        CpuCost {
            submit: 13.0,
            complete: 10.0,
            transport: 58.5,
            nvme_driver: 83.6,
            per_kb: 1.0,
        }
    }

    /// Gimbal on a Xeon core (§5.8: 1368 KIOPS NULL device, −10.8 %).
    pub fn xeon_gimbal() -> Self {
        CpuCost {
            submit: 19.0,
            complete: 14.0,
            ..Self::xeon_vanilla()
        }
    }

    /// Total submit-path cycles for an IO of `bytes`.
    pub fn submit_cycles(&self, bytes: u64, null_device: bool) -> f64 {
        let driver = if null_device {
            0.0
        } else {
            self.nvme_driver * 0.6
        };
        self.submit + self.transport * 0.6 + driver + self.per_kb * (bytes as f64 / 1024.0) * 0.5
    }

    /// Total completion-path cycles for an IO of `bytes`.
    pub fn complete_cycles(&self, bytes: u64, null_device: bool) -> f64 {
        let driver = if null_device {
            0.0
        } else {
            self.nvme_driver * 0.4
        };
        self.complete + self.transport * 0.4 + driver + self.per_kb * (bytes as f64 / 1024.0) * 0.5
    }

    /// Total per-IO cycles (submit + complete paths).
    pub fn total_cycles(&self, bytes: u64, null_device: bool) -> f64 {
        self.submit_cycles(bytes, null_device) + self.complete_cycles(bytes, null_device)
    }
}

#[cfg(test)]
impl CpuCost {
    /// Theoretical per-core IOPS ceiling for `bytes`-sized IOs.
    pub(crate) fn core_iops_limit(&self, bytes: u64, null_device: bool) -> f64 {
        let us_per_io = self.total_cycles(bytes, null_device) / CYCLES_PER_US;
        1e6 / us_per_io
    }
}

#[cfg(test)]
impl Core {
    /// Core utilization over `[0, now]`.
    pub(crate) fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            0.0
        } else {
            (self.busy_accum.as_secs_f64() / now.as_secs_f64()).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_conversion_matches_table1_unit() {
        assert_eq!(cycles_to_duration(125.0), SimDuration::from_micros(1));
        assert_eq!(cycles_to_duration(62.5), SimDuration::from_nanos(500));
    }

    #[test]
    fn core_serializes_work() {
        let mut c = Core::new();
        let t1 = c.process(SimTime::ZERO, 125.0);
        assert_eq!(t1, SimTime::from_micros(1));
        let t2 = c.process(SimTime::ZERO, 125.0);
        assert_eq!(t2, SimTime::from_micros(2), "queues behind first");
        let t3 = c.process(SimTime::from_micros(10), 125.0);
        assert_eq!(t3, SimTime::from_micros(11), "idle gap not charged");
        assert_eq!(c.busy_time(), SimDuration::from_micros(3));
    }

    #[test]
    fn utilization_bounded() {
        let mut c = Core::new();
        c.process(SimTime::ZERO, 1250.0);
        let u = c.utilization(SimTime::from_micros(20));
        assert!((u - 0.5).abs() < 0.01);
        assert_eq!(Core::new().utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn null_device_iops_reproduce_table_1b() {
        // Table 1b: vanilla 937 KIOPS, Gimbal 821 KIOPS on one ARM core.
        let v = CpuCost::arm_vanilla().core_iops_limit(4096, true);
        let g = CpuCost::arm_gimbal().core_iops_limit(4096, true);
        assert!((v / 1e3 - 937.0).abs() < 60.0, "vanilla {v}");
        assert!((g / 1e3 - 821.0).abs() < 60.0, "gimbal {g}");
        let drop = (v - g) / v * 100.0;
        assert!((5.0..20.0).contains(&drop), "drop {drop}% (paper: 12.4%)");
    }

    #[test]
    fn real_device_costs_more_cpu_than_null() {
        let c = CpuCost::arm_vanilla();
        assert!(c.core_iops_limit(4096, false) < c.core_iops_limit(4096, true));
        // ~505 KIOPS/core against a real SSD (Fig 3 shape).
        let real = c.core_iops_limit(4096, false) / 1e3;
        assert!((400.0..600.0).contains(&real), "real-SSD IOPS/core {real}");
    }

    #[test]
    fn xeon_outpaces_arm() {
        let x = CpuCost::xeon_vanilla().core_iops_limit(4096, false);
        let a = CpuCost::arm_vanilla().core_iops_limit(4096, false);
        assert!(x > a * 1.3, "xeon {x} vs arm {a}");
        // §5.8: Xeon NULL device 1533 vs 1368 KIOPS (−10.8 %).
        let xv = CpuCost::xeon_vanilla().core_iops_limit(4096, true) / 1e3;
        let xg = CpuCost::xeon_gimbal().core_iops_limit(4096, true) / 1e3;
        assert!((xv - 1533.0).abs() < 120.0, "xeon vanilla {xv}");
        assert!(xg < xv, "gimbal adds overhead");
    }

    #[test]
    fn large_ios_cost_more() {
        let c = CpuCost::arm_vanilla();
        let small = c.total_cycles(4096, false);
        let big = c.total_cycles(128 * 1024, false);
        assert!(
            big > small + 100.0,
            "per-KB term should matter: {small} {big}"
        );
    }
}
