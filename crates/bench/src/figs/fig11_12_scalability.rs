//! Figures 11 & 12: throughput and average read latency as the number of
//! DB instances grows (Gimbal scheme).
//!
//! Paper shape: throughput grows then saturates (A/B/D max out around 20
//! instances, F around 16); read latency climbs with consolidation except
//! for read-only C, which stays flat.

use crate::common::println_header;
use crate::figs::fig10_ycsb::run_cell;
use gimbal_testbed::Scheme;
use gimbal_workload::YcsbMix;

/// Run the experiment and print both figures' series.
pub(crate) fn run(quick: bool) {
    println_header("Figures 11/12: scalability with DB instances (Gimbal)");
    let counts: &[u32] = if quick {
        &[2, 6, 10]
    } else {
        &[4, 8, 12, 16, 20, 24]
    };
    println!(
        "{:>8} {:>10} {:>12} {:>14}",
        "Mix", "Instances", "KIOPS", "Avg RD (us)"
    );
    for mix in YcsbMix::ALL {
        for &n in counts {
            let res = run_cell(Scheme::Gimbal, mix, n, quick);
            println!(
                "{:>8} {:>10} {:>12.1} {:>14.0}",
                mix.name(),
                n,
                res.total_kiops(),
                res.avg_read_latency_us(),
            );
        }
    }
}
