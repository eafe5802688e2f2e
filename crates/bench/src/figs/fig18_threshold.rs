//! Figure 18 (Appendix B): Gimbal's dynamic latency threshold tracking the
//! EWMA latency (128 KB random read).
//!
//! Paper shape: the threshold decays toward the EWMA; when outstanding IO
//! grows and the EWMA crosses it, congestion signals fire and the threshold
//! springs toward `Thresh_max`, firing more often the closer latency gets
//! to the ceiling.

use crate::common::{println_header, Region, CAP_BLOCKS};
use gimbal_sim::{SimDuration, SimTime};
use gimbal_testbed::{Precondition, Scheme, Testbed, TestbedConfig, WorkerSpec};
use gimbal_workload::FioSpec;

/// Run the experiment and print the two traces.
pub(crate) fn run(quick: bool) {
    println_header("Figure 18: dynamic latency threshold (Gimbal, 128KB random read)");
    let n = 8u32;
    let workers: Vec<WorkerSpec> = (0..n)
        .map(|i| {
            let r = Region::slice(i, n, CAP_BLOCKS);
            // Stagger starts so load (and the EWMA) ramps visibly.
            let start = SimTime::ZERO + SimDuration::from_millis(u64::from(i).saturating_mul(150));
            WorkerSpec::new(
                format!("w{i}"),
                FioSpec::paper_default(1.0, 128 * 1024, r.start, r.blocks),
            )
            .active(start, None)
        })
        .collect();
    let duration = if quick {
        SimDuration::from_millis(1600)
    } else {
        SimDuration::from_secs(4)
    };
    let cfg = TestbedConfig {
        scheme: Scheme::Gimbal,
        precondition: Precondition::Clean,
        duration,
        warmup: SimDuration::from_millis(50),
        sample_interval: Some(SimDuration::from_millis(25)),
        ..TestbedConfig::default()
    };
    let res = Testbed::new(cfg, workers).run();
    let tr = &res.gimbal_traces[0];
    println!("{:>8} {:>12} {:>12}", "t (ms)", "ewma (us)", "thresh (us)");
    let step = SimDuration::from_millis(100);
    let mut t = SimTime::ZERO + step;
    while t <= SimTime::ZERO + duration {
        let lo = t - step;
        println!(
            "{:>8.0} {:>12.0} {:>12.0}",
            t.as_secs_f64() * 1e3,
            tr.read_ewma_us.mean_in(lo, t).unwrap_or(0.0),
            tr.read_thresh_us.mean_in(lo, t).unwrap_or(0.0),
        );
        t += step;
    }
}
