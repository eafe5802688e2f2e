//! Table 1: CPU overhead of the Gimbal switch vs vanilla SPDK.
//!
//! (a) per-path cycle costs (the model constants, in the paper's
//! 125-cycles-per-µs unit); (b) maximum 4 KB read IOPS against a NULL
//! device on 1 and 4 SmartNIC cores.

use crate::common::println_header;
use gimbal_fabric::{CmdId, IoType, NvmeCmd, Priority, SsdId, TenantId};
use gimbal_nic::CpuCost;
use gimbal_sim::{SimDuration, SimTime};
use gimbal_ssd::NullDevice;
use gimbal_switch::{FifoPolicy, Pipeline, PipelineConfig};

fn cmd(id: u64, issued: SimTime) -> NvmeCmd {
    NvmeCmd {
        id: CmdId(id),
        tenant: TenantId(0),
        ssd: SsdId(0),
        opcode: IoType::Read,
        lba: 0,
        len: 4096,
        priority: Priority::NORMAL,
        issued_at: issued,
        wal: None,
    }
}

/// Max NULL-device KIOPS with `cores` pipelines (one NULL device each),
/// under the given CPU cost model.
fn null_kiops(cost: CpuCost, cores: u32, quick: bool) -> f64 {
    let horizon = SimTime::ZERO
        + if quick {
            SimDuration::from_millis(20)
        } else {
            SimDuration::from_millis(100)
        };
    let cfg = PipelineConfig {
        cpu_cost: cost,
        null_device: true,
        cache: None,
        broker: None,
    };
    let mut pipes: Vec<Pipeline<NullDevice>> = (0..cores)
        .map(|i| {
            Pipeline::new(
                SsdId(i),
                NullDevice::new(),
                Box::new(FifoPolicy::new()),
                cfg.clone(),
            )
        })
        .collect();
    let mut id = 0u64;
    for p in &mut pipes {
        for _ in 0..64 {
            p.on_command(cmd(id, SimTime::ZERO), SimTime::ZERO);
            id += 1;
        }
    }
    let mut done = 0u64;
    loop {
        // Earliest-next pipeline steps first (simple round of the event loop).
        let next = pipes
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.next_event_at().map(|t| (t, i)))
            .min();
        let Some((t, i)) = next else { break };
        if t > horizon {
            break;
        }
        pipes[i].poll(t);
        for _ in pipes[i].take_outputs() {
            done += 1;
            pipes[i].on_command(cmd(id, t), t);
            id += 1;
        }
    }
    done as f64 / horizon.as_secs_f64() / 1e3
}

/// Run the table.
pub(crate) fn run(quick: bool) {
    println_header("Table 1a: per-IO CPU cycles (125 cycles = 1us)");
    println!("{:<28} {:>10} {:>10}", "", "Vanilla", "Gimbal");
    let rows = [
        (
            "1 worker (QD1)  submit",
            CpuCost::arm_vanilla_qd1().submit,
            CpuCost::arm_gimbal_qd1().submit,
        ),
        (
            "1 worker (QD1)  complete",
            CpuCost::arm_vanilla_qd1().complete,
            CpuCost::arm_gimbal_qd1().complete,
        ),
        (
            "16 workers (QD32) submit",
            CpuCost::arm_vanilla().submit,
            CpuCost::arm_gimbal().submit,
        ),
        (
            "16 workers (QD32) complete",
            CpuCost::arm_vanilla().complete,
            CpuCost::arm_gimbal().complete,
        ),
    ];
    for (label, v, g) in rows {
        println!(
            "{:<28} {:>10.0} {:>7.0} (+{:.1}%)",
            label,
            v,
            g,
            (g - v) / v * 100.0
        );
    }

    println_header("Table 1b: max 4KB read IOPS, NULL device");
    for (label, cores) in [("1 CPU core", 1u32), ("4 CPU cores", 4)] {
        let v = null_kiops(CpuCost::arm_vanilla(), cores, quick);
        let g = null_kiops(CpuCost::arm_gimbal(), cores, quick);
        println!(
            "{:<14} Vanilla {:>6.0} KIOPS   Gimbal {:>6.0} KIOPS ({:+.1}%)",
            label,
            v,
            g,
            (g - v) / v * 100.0
        );
    }

    println_header("§5.8: Xeon E5-2620 v4, NULL device (1 core)");
    let v = null_kiops(CpuCost::xeon_vanilla(), 1, quick);
    let g = null_kiops(CpuCost::xeon_gimbal(), 1, quick);
    println!(
        "Vanilla {:>6.0} KIOPS   Gimbal {:>6.0} KIOPS ({:+.1}%)",
        v,
        g,
        (g - v) / v * 100.0
    );
}
