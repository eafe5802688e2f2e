//! §5.8 generalization: Gimbal on the Intel DC P3600 (MLC) profile.
//!
//! The paper re-runs the §5.3 fairness microbenchmark on a P3600 — 33.5 %
//! lower 128 KB read bandwidth, 35 % higher 4 KB random write — with only
//! `Thresh_max` retuned (3 ms), and reports f-Utils of 0.63/0.72 (clean
//! read/write) and 0.58/0.90 (fragmented read/write): Gimbal adapts to a
//! different device without re-engineering.

use crate::common::{
    println_header, standalone_bw, standalone_bw_on, testbed_config, Region, CAP_BLOCKS,
};
use gimbal_core::Params;
use gimbal_ssd::{SsdConfig, SsdProfile};
use gimbal_testbed::{f_util, Precondition, Scheme, Testbed, TestbedConfig, WorkerSpec};
use gimbal_workload::{AccessPattern, FioSpec};

fn p3600_ssd() -> SsdConfig {
    SsdConfig {
        logical_capacity: 512 * 1024 * 1024,
        ..SsdConfig::profile(SsdProfile::P3600)
    }
}

/// Standalone 128 KB clean-read bandwidth (bytes/s) of the DCT983 and the
/// P3600 — the device sanity row (paper: −33.5 %).
pub(crate) fn clean_read_bw(quick: bool) -> (f64, f64) {
    let fio = FioSpec::paper_default(1.0, 128 * 1024, 0, CAP_BLOCKS);
    (
        standalone_bw(fio, Precondition::Clean, quick),
        standalone_bw_on(p3600_ssd(), fio, Precondition::Clean),
    )
}

/// Read and write f-Utils of 16 readers + 16 writers under Gimbal on the
/// P3600 (clean runs use 128 KB sequential reads / random writes).
pub(crate) fn rw_futils(pre: Precondition, io: u64, quick: bool) -> (f64, f64) {
    let n = 32u32;
    let mut workers = Vec::new();
    let mut specs = Vec::new();
    for i in 0..n {
        let r = Region::slice(i, n, CAP_BLOCKS);
        let ratio = if i < n / 2 { 1.0 } else { 0.0 };
        let mut fio = FioSpec::paper_default(ratio, io, r.start, r.blocks);
        if io >= 128 * 1024 {
            fio.read_pattern = AccessPattern::Sequential;
            fio.write_pattern = AccessPattern::Random;
        }
        specs.push(fio);
        workers.push(WorkerSpec::new(
            if i < n / 2 { "read" } else { "write" },
            fio,
        ));
    }
    let cfg = TestbedConfig {
        gimbal_params: Params::p3600(),
        ssd: p3600_ssd(),
        ..testbed_config(Scheme::Gimbal, pre, quick)
    };
    let res = Testbed::new(cfg, workers).run();
    // f-Util against the P3600's own standalone capabilities.
    let read_alone = standalone_bw_on(p3600_ssd(), specs[0], pre);
    let write_alone = standalone_bw_on(p3600_ssd(), specs[(n - 1) as usize], pre);
    let rd = res.aggregate_bps(|l| l == "read") / f64::from(n / 2);
    let wr = res.aggregate_bps(|l| l == "write") / f64::from(n / 2);
    (f_util(rd, read_alone, n), f_util(wr, write_alone, n))
}

/// Run the generalization study.
pub(crate) fn run(quick: bool) {
    println_header("§5.8 generalization: Gimbal on the Intel P3600 profile (Thresh_max = 3ms)");
    // Device sanity vs the DCT983 (paper: −33.5 % 128K read, +35 % 4K write).
    let (d, p) = clean_read_bw(quick);
    println!(
        "128KB clean read: DCT983 {:.0} MB/s vs P3600 {:.0} MB/s ({:+.1}%)",
        d / 1e6,
        p / 1e6,
        (p - d) / d * 100.0
    );
    println!(
        "\n{:>14} {:>12} {:>12}",
        "Condition", "read f-Util", "write f-Util"
    );
    let (crd, cwr) = rw_futils(Precondition::Clean, 128 * 1024, quick);
    println!(
        "{:>14} {:>12.2} {:>12.2}  (paper: 0.63 / 0.72)",
        "Clean 128KB", crd, cwr
    );
    let (frd, fwr) = rw_futils(Precondition::Fragmented, 4096, quick);
    println!(
        "{:>14} {:>12.2} {:>12.2}  (paper: 0.58 / 0.90)",
        "Frag 4KB", frd, fwr
    );
}
