//! Figure 8: average / p99 / p99.9 end-to-end latency of the read+write
//! mixed workloads of Fig 7 (b: clean 128 KB, c: fragmented 4 KB).
//!
//! Paper shape: Gimbal's credit-based flow control keeps the tails an order
//! of magnitude below FlashFQ/ReFlex (no flow control) and beats Parda at
//! p99/p99.9.

use crate::common::println_header;
use crate::figs::fig07_fairness::{mixes, run_mix};
use gimbal_testbed::Scheme;

/// Run the experiment and print both panels.
pub(crate) fn run(quick: bool) {
    println_header("Figure 8: read/write latency, 16 read + 16 write workers");
    let all = mixes();
    for mix in &all[1..] {
        println!("\n-- {} --", mix.name);
        println!(
            "{:>9} {:>10} {:>10} {:>11} {:>10} {:>10} {:>11}",
            "Scheme", "RD avg", "RD p99", "RD p99.9", "WR avg", "WR p99", "WR p99.9"
        );
        for scheme in Scheme::COMPARED {
            let r = run_mix(mix, scheme, quick);
            let [rd, wr] = r.latency;
            println!(
                "{:>9} {:>8.0}us {:>8.0}us {:>9.0}us {:>8.0}us {:>8.0}us {:>9.0}us",
                scheme.name(),
                rd.mean_us(),
                rd.p99_us(),
                rd.p999_us(),
                wr.mean_us(),
                wr.p99_us(),
                wr.p999_us(),
            );
        }
    }
}
