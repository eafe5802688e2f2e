//! Shared experiment plumbing for the figure harness.

use gimbal_sim::SimDuration;
use gimbal_ssd::SsdConfig;
use gimbal_testbed::{Precondition, Scheme, Testbed, TestbedConfig, WorkerSpec};
use gimbal_workload::FioSpec;

/// Logical blocks of the default experiment SSD (512 MiB / 4 KiB).
pub const CAP_BLOCKS: u64 = 512 * 1024 * 1024 / 4096;

/// The default experiment SSD configuration (scaled-down DCT983).
pub fn default_ssd() -> SsdConfig {
    SsdConfig {
        logical_capacity: 512 * 1024 * 1024,
        ..SsdConfig::default()
    }
}

/// Disjoint worker regions: worker `i` of `n` gets an equal slice of the
/// LBA space (fio's per-job files).
#[derive(Clone, Copy, Debug)]
pub struct Region {
    /// First LBA.
    pub start: u64,
    /// Length in blocks.
    pub blocks: u64,
}

impl Region {
    /// Slice `i` of `n` over `cap` blocks.
    pub fn slice(i: u32, n: u32, cap: u64) -> Region {
        let per = cap / u64::from(n);
        Region {
            start: u64::from(i) * per,
            blocks: per,
        }
    }
}

/// Standalone maximum bandwidth (bytes/s) of one worker running exclusively
/// on the SSD — the denominator of the paper's f-Util metric (§5.1).
/// Measured on the vanilla (no-policy) target so it reflects the device.
/// `quick` is accepted for symmetry with the figures; the window is fixed.
pub fn standalone_bw(fio: FioSpec, pre: Precondition, quick: bool) -> f64 {
    let _ = quick;
    standalone_bw_on(default_ssd(), fio, pre)
}

/// [`standalone_bw`] on an arbitrary SSD configuration.
pub fn standalone_bw_on(ssd: SsdConfig, mut fio: FioSpec, pre: Precondition) -> f64 {
    // Boost the queue depth a little so a single worker can actually reach
    // the device maximum (fio's standalone runs do the same).
    fio.queue_depth = fio.queue_depth.max(32);
    // Short window: the paper's standalone numbers are per-condition peaks
    // measured right after preconditioning; a long sustained-write window
    // would drift a clean drive into GC and understate the denominator.
    let cfg = TestbedConfig {
        scheme: Scheme::Vanilla,
        ssd,
        precondition: pre,
        duration: SimDuration::from_millis(700),
        warmup: SimDuration::from_millis(150),
        ..TestbedConfig::default()
    };
    let res = Testbed::new(cfg, vec![WorkerSpec::new("standalone", fio)]).run();
    res.workers[0].bandwidth_bps()
}

/// The standard fio experiment: `scheme` on the default SSD in condition
/// `pre`, for [`durations`]`(quick)`. Figures override the rest with `..`.
pub fn testbed_config(scheme: Scheme, pre: Precondition, quick: bool) -> TestbedConfig {
    let (duration, warmup) = durations(quick);
    TestbedConfig {
        scheme,
        precondition: pre,
        duration,
        warmup,
        ..TestbedConfig::default()
    }
}

/// Standard (duration, warmup) pair; quick mode shortens both but keeps the
/// warmup long enough for Gimbal's rate ramp (~0.4 s).
pub fn durations(quick: bool) -> (SimDuration, SimDuration) {
    if quick {
        (
            SimDuration::from_millis(1400),
            SimDuration::from_millis(700),
        )
    } else {
        (SimDuration::from_secs(3), SimDuration::from_millis(1000))
    }
}

/// Print a figure header.
pub fn println_header(title: &str) {
    println!();
    println!("==== {title} ====");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_cover() {
        let a = Region::slice(0, 4, CAP_BLOCKS);
        let b = Region::slice(1, 4, CAP_BLOCKS);
        assert_eq!(a.start + a.blocks, b.start);
        let last = Region::slice(3, 4, CAP_BLOCKS);
        assert!(last.start + last.blocks <= CAP_BLOCKS);
    }

    #[test]
    fn standalone_bw_sane_for_reads() {
        let fio = FioSpec::paper_default(1.0, 128 * 1024, 0, CAP_BLOCKS);
        let bw = standalone_bw(fio, Precondition::Clean, true);
        // 128 KB clean reads ≈ link limit 3.2 GB/s.
        assert!((2.0e9..3.5e9).contains(&bw), "standalone {bw}");
    }
}
