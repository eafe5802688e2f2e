//! Figure 17 (Appendix B): the latency impulse — delay vs load on an
//! uncontrolled target as offered load crosses the device's capacity.
//!
//! A 4 KB + 128 KB read mix ramps up (one more worker pair joins every
//! second). Paper shape: bandwidth saturates while average latency, flat
//! until then, spikes dramatically at the congestion point — the signal
//! Gimbal's delay-based congestion control feeds on.

use crate::common::{println_header, Region, CAP_BLOCKS};
use gimbal_sim::{SimDuration, SimTime};
use gimbal_testbed::{Precondition, Scheme, Testbed, TestbedConfig, WorkerSpec};
use gimbal_workload::FioSpec;

/// Run the experiment and print the time series.
pub fn run(quick: bool) {
    println_header("Figure 17: latency impulse under rising 4KB/128KB read load (vanilla)");
    let step = if quick {
        SimDuration::from_millis(400)
    } else {
        SimDuration::from_secs(1)
    };
    let pairs = 8u32;
    let duration = step * u64::from(pairs + 2);
    let mut specs = Vec::new();
    for i in 0..pairs {
        let start = SimTime::ZERO + step * u64::from(i);
        let r1 = Region::slice(2 * i, 2 * pairs, CAP_BLOCKS);
        let r2 = Region::slice(2 * i + 1, 2 * pairs, CAP_BLOCKS);
        specs.push(
            WorkerSpec::new(
                "small",
                FioSpec::paper_default(1.0, 4096, r1.start, r1.blocks),
            )
            .active(start, None),
        );
        specs.push(
            WorkerSpec::new(
                "large",
                FioSpec::paper_default(1.0, 128 * 1024, r2.start, r2.blocks),
            )
            .active(start, None),
        );
    }
    let cfg = TestbedConfig {
        scheme: Scheme::Vanilla,
        precondition: Precondition::Clean,
        duration,
        warmup: SimDuration::from_millis(50),
        sample_interval: Some(SimDuration::from_millis(50)),
        ..TestbedConfig::default()
    };
    let res = Testbed::new(cfg, specs).run();
    let dev = &res.device_series[0];
    println!(
        "{:>8} {:>14} {:>16}",
        "t (s)", "avg lat (us)", "agg B/W (MB/s)"
    );
    let mut t = SimTime::ZERO + step;
    while t <= SimTime::ZERO + duration {
        let lo = t - step;
        println!(
            "{:>8.1} {:>14.0} {:>16.0}",
            t.as_secs_f64(),
            dev.read_lat_us.mean_in(lo, t).unwrap_or(0.0),
            dev.bandwidth_bps.mean_in(lo, t).unwrap_or(0.0) / 1e6,
        );
        t += step;
    }
}
