//! Figure 13: application optimizations enabled by the per-SSD virtual view
//! — p99.9 read latency of vanilla vs +flow-control vs +FC+load-balancing.
//!
//! 8 DB instances on one Gimbal JBOF. Paper shape: the credit-driven IO
//! rate limiter cuts p99.9 by ~28 %; steering reads to the replica with
//! more credit cuts another ~19 %.

use crate::common::println_header;
use crate::figs::fig10_ycsb::kv_config;
use gimbal_testbed::{KvTestbed, Scheme};
use gimbal_workload::YcsbMix;

/// Run the experiment and print the three bars per mix.
pub(crate) fn run(quick: bool) {
    println_header("Figure 13: virtual-view optimizations (Gimbal, 1 JBOF, 8 instances)");
    println!("{:>8} {:>18} {:>16}", "Mix", "Variant", "p99.9 RD (us)");
    for mix in YcsbMix::ALL {
        for (label, fc, lb) in [
            ("Vanilla", false, false),
            ("Vanilla+FC", true, false),
            ("Vanilla+FC+LB", true, true),
        ] {
            let mut cfg = kv_config(Scheme::Gimbal, mix, 8, quick);
            cfg.num_nodes = 1;
            cfg.ssds_per_node = 4;
            cfg.flow_control = fc;
            cfg.load_balance = lb;
            let res = KvTestbed::new(cfg).run();
            println!(
                "{:>8} {:>18} {:>16.0}",
                mix.name(),
                label,
                res.p999_read_latency_us()
            );
        }
    }
}
