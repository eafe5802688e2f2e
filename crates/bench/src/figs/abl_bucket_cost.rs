//! Ablations: dual vs single token bucket (Appendix C.1) and dynamic vs
//! static write cost (§3.4).
//!
//! * The single-bucket variant "would submit write IOs at a wrong rate and
//!   cause severe latency increments" — measured here as write latency on
//!   the clean 128 KB read/write mix.
//! * The static-write-cost variant is ReFlex's worst-case tax: it forfeits
//!   the device's write-buffer optimization, starving writes that the SSD
//!   could have absorbed for free (the Fig 9 effect).

use crate::common::{durations, println_header, testbed_config, Region, CAP_BLOCKS};
use gimbal_core::Params;
use gimbal_sim::{SimDuration, SimTime};
use gimbal_testbed::{Precondition, Scheme, Testbed, TestbedConfig, WorkerSpec};
use gimbal_workload::{AccessPattern, FioSpec};

struct Row {
    read_mbps: f64,
    write_mbps: f64,
    write_avg_us: f64,
    write_p999_us: f64,
}

fn rw_mix(params: Params, pre: Precondition, io: u64, quick: bool) -> Row {
    let n = 32u32;
    let mut workers = Vec::new();
    for i in 0..n {
        let r = Region::slice(i, n, CAP_BLOCKS);
        let ratio = if i < n / 2 { 1.0 } else { 0.0 };
        let mut fio = FioSpec::paper_default(ratio, io, r.start, r.blocks);
        if io >= 128 * 1024 {
            fio.write_pattern = AccessPattern::Random;
            fio.read_pattern = AccessPattern::Sequential;
        }
        workers.push(WorkerSpec::new(
            if i < n / 2 { "read" } else { "write" },
            fio,
        ));
    }
    let cfg = TestbedConfig {
        gimbal_params: params,
        ..testbed_config(Scheme::Gimbal, pre, quick)
    };
    let res = Testbed::new(cfg, workers).run();
    let [_, wr] = res.group_latency(|l| l == "write");
    Row {
        read_mbps: res.aggregate_bps(|l| l == "read") / 1e6,
        write_mbps: res.aggregate_bps(|l| l == "write") / 1e6,
        write_avg_us: wr.mean_us(),
        write_p999_us: wr.p999_us(),
    }
}

/// Readers run from t=0 (warming the target rate to the read-heavy
/// operating point); 8 write workers burst in at half time.
fn write_burst(params: Params, quick: bool) -> Row {
    let n = 16u32;
    let (duration, warmup) = durations(quick);
    let burst_at = SimTime::ZERO + warmup;
    let mut workers = Vec::new();
    // Readers warm the target rate to the read operating point, then STOP
    // exactly when the writers arrive — the dequeue series turns all-write,
    // which is the Appendix C.1 case where a shared bucket admits writes at
    // the read-calibrated rate.
    for i in 0..8 {
        let r = Region::slice(i, n, CAP_BLOCKS);
        workers.push(
            WorkerSpec::new("read", FioSpec::paper_default(1.0, 4096, r.start, r.blocks))
                .active(SimTime::ZERO, Some(burst_at)),
        );
    }
    for i in 8..16 {
        let r = Region::slice(i, n, CAP_BLOCKS);
        workers.push(
            WorkerSpec::new(
                "write",
                FioSpec::paper_default(0.0, 4096, r.start, r.blocks),
            )
            .active(burst_at, None),
        );
    }
    let cfg = TestbedConfig {
        gimbal_params: params,
        duration: duration + SimDuration::from_millis(200),
        ..testbed_config(Scheme::Gimbal, Precondition::Fragmented, quick)
    };
    let res = Testbed::new(cfg, workers).run();
    let [_, wr] = res.group_latency(|l| l == "write");
    Row {
        read_mbps: res.aggregate_bps(|l| l == "read") / 1e6,
        write_mbps: res.aggregate_bps(|l| l == "write") / 1e6,
        write_avg_us: wr.mean_us(),
        write_p999_us: wr.p999_us(),
    }
}

/// Run both ablations.
pub fn run(quick: bool) {
    // Appendix C.1's pathology is a *burst*: the DRR "does not reorder read
    // and write I/Os so … only a single kind of IO operations may be
    // dequeued in a series", and with one shared bucket that series of
    // writes is admitted at the (read-calibrated, much higher) total target
    // rate. Scenario: readers warm the rate up on a fragmented drive, then
    // a write burst joins.
    println_header("Ablation: dual vs single token bucket (write burst joins warm readers)");
    println!(
        "{:>14} {:>10} {:>10} {:>12} {:>14}",
        "Variant", "RD MB/s", "WR MB/s", "WR avg us", "WR p99.9 us"
    );
    for (label, params) in [
        ("dual bucket", Params::default()),
        (
            "single bucket",
            Params {
                single_bucket: true,
                ..Params::default()
            },
        ),
    ] {
        let r = write_burst(params, quick);
        println!(
            "{label:>14} {:>10.0} {:>10.0} {:>12.0} {:>14.0}",
            r.read_mbps, r.write_mbps, r.write_avg_us, r.write_p999_us
        );
    }

    println_header("Ablation: dynamic vs static write cost (fragmented, 16R+16W 4KB)");
    println!(
        "{:>14} {:>10} {:>10} {:>12} {:>14}",
        "Variant", "RD MB/s", "WR MB/s", "WR avg us", "WR p99.9 us"
    );
    for (label, params) in [
        ("dynamic cost", Params::default()),
        (
            "static worst",
            Params {
                static_write_cost: true,
                ..Params::default()
            },
        ),
    ] {
        let r = rw_mix(params, Precondition::Fragmented, 4096, quick);
        println!(
            "{label:>14} {:>10.0} {:>10.0} {:>12.0} {:>14.0}",
            r.read_mbps, r.write_mbps, r.write_avg_us, r.write_p999_us
        );
    }
}
