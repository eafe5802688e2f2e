//! Ablation: the virtual-slot threshold (§4.2's "number of virtual slots").
//!
//! The paper sets the per-tenant slot threshold to 8 — "the minimum number
//! to reach the device's maximum bandwidth if there is only one active
//! tenant" — and notes that larger slots degrade fairness. This sweep
//! measures single-tenant utilization and 16-tenant fairness across slot
//! thresholds.

use crate::common::{println_header, testbed_config, Region, CAP_BLOCKS};
use gimbal_core::Params;
use gimbal_testbed::{jain_index, Precondition, Scheme, Testbed, TestbedConfig, WorkerSpec};
use gimbal_workload::FioSpec;

fn run_with_slots(slots: u32, tenants: u32, quick: bool) -> (f64, f64) {
    let workers: Vec<WorkerSpec> = (0..tenants)
        .map(|i| {
            let r = Region::slice(i, tenants, CAP_BLOCKS);
            WorkerSpec::new(
                format!("w{i}"),
                FioSpec {
                    queue_depth: 16,
                    ..FioSpec::paper_default(1.0, 128 * 1024, r.start, r.blocks)
                },
            )
        })
        .collect();
    let cfg = TestbedConfig {
        gimbal_params: Params {
            slots_per_tenant: slots,
            ..Params::default()
        },
        ..testbed_config(Scheme::Gimbal, Precondition::Clean, quick)
    };
    let res = Testbed::new(cfg, workers).run();
    let total = res.aggregate_bps(|_| true) / 1e6;
    let bws: Vec<f64> = res.workers.iter().map(|w| w.bandwidth_bps()).collect();
    (total, jain_index(&bws))
}

/// Run the sweep.
pub fn run(quick: bool) {
    println_header("Ablation: virtual-slot threshold sweep (clean 128KB reads)");
    println!(
        "{:>7} {:>18} {:>18} {:>14}",
        "Slots", "1-tenant MB/s", "16-tenant MB/s", "Jain fairness"
    );
    let sweep: &[u32] = if quick {
        &[2, 8, 32]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };
    for &slots in sweep {
        let (solo, _) = run_with_slots(slots, 1, quick);
        let (multi, jain) = run_with_slots(slots, 16, quick);
        println!("{slots:>7} {solo:>18.0} {multi:>18.0} {jain:>14.3}");
    }
}
