//! Figure 7: fairness across IO sizes and IO types, per scheme and SSD
//! condition, reported as per-group bandwidth and f-Util (§5.1's metric).
//!
//! * (a/d) clean SSD: 16 workers of 4 KB random read + 4 workers of 128 KB
//!   random read;
//! * (b/e) clean SSD: 16 × 128 KB sequential read + 16 × 128 KB random
//!   write;
//! * (c/f) fragmented SSD: 16 × 4 KB random read + 16 × 4 KB random write.
//!
//! Paper shape: Gimbal's f-Utils sit closest to 1.0 in every mix; ReFlex is
//! byte-fair across sizes (so misses the cost difference) and chokes clean
//! writes; FlashFQ equalizes read/write bandwidth; Parda collapses
//! fragmented reads against buffered writes.

use crate::common::{println_header, standalone_bw, testbed_config, Region, CAP_BLOCKS};
use gimbal_sim::stats::LatencySummary;
use gimbal_testbed::{f_util, Precondition, Scheme, Testbed, WorkerSpec};
use gimbal_workload::{AccessPattern, FioSpec};

/// One worker group within a mix.
#[derive(Clone, Debug)]
pub struct Group {
    /// Group label ("4KB", "Read", ...).
    pub label: &'static str,
    /// Workers in the group.
    pub count: u32,
    /// Stream shape (region filled per worker).
    pub fio: FioSpec,
}

/// A fairness mix: two groups sharing one SSD.
pub struct Mix {
    /// Panel name.
    pub name: &'static str,
    /// SSD condition.
    pub pre: Precondition,
    /// The two contending groups.
    pub groups: [Group; 2],
}

fn spec(read_ratio: f64, io: u64, seq_read: bool) -> FioSpec {
    let mut f = FioSpec::paper_default(read_ratio, io, 0, CAP_BLOCKS);
    if seq_read {
        f.read_pattern = AccessPattern::Sequential;
    }
    f
}

/// The three mixes of Fig 7.
pub fn mixes() -> [Mix; 3] {
    [
        Mix {
            name: "(a/d) Clean: 4KB vs 128KB read",
            pre: Precondition::Clean,
            groups: [
                Group {
                    label: "4KB",
                    count: 16,
                    fio: spec(1.0, 4096, false),
                },
                Group {
                    label: "128KB",
                    count: 4,
                    fio: spec(1.0, 128 * 1024, false),
                },
            ],
        },
        Mix {
            name: "(b/e) Clean: 128KB read vs write",
            pre: Precondition::Clean,
            groups: [
                Group {
                    label: "Read",
                    count: 16,
                    fio: spec(1.0, 128 * 1024, true),
                },
                Group {
                    label: "Write",
                    count: 16,
                    fio: {
                        let mut f = spec(0.0, 128 * 1024, false);
                        f.write_pattern = AccessPattern::Random; // 128KB *random* write
                        f
                    },
                },
            ],
        },
        Mix {
            name: "(c/f) Fragmented: 4KB read vs write",
            pre: Precondition::Fragmented,
            groups: [
                Group {
                    label: "Read",
                    count: 16,
                    fio: spec(1.0, 4096, false),
                },
                Group {
                    label: "Write",
                    count: 16,
                    fio: spec(0.0, 4096, false),
                },
            ],
        },
    ]
}

/// Result of one (mix, scheme) run: per-group mean worker bandwidth,
/// f-Util, and latency summaries `[read, write]` for Fig 8.
pub struct MixResult {
    /// Per-group (bandwidth bytes/s per worker, f-Util).
    pub groups: [(f64, f64); 2],
    /// Group latency summaries of the whole run `[read, write]`.
    pub latency: [LatencySummary; 2],
}

/// Run one mix under a scheme.
pub fn run_mix(mix: &Mix, scheme: Scheme, quick: bool) -> MixResult {
    let total: u32 = mix.groups.iter().map(|g| g.count).sum();
    let mut workers = Vec::new();
    let mut idx = 0u32;
    for g in &mix.groups {
        for _ in 0..g.count {
            let r = Region::slice(idx, total, CAP_BLOCKS);
            let mut fio = g.fio;
            fio.region_start = r.start;
            fio.region_blocks = r.blocks;
            workers.push(WorkerSpec::new(g.label, fio));
            idx += 1;
        }
    }
    let res = Testbed::new(testbed_config(scheme, mix.pre, quick), workers).run();

    let mut groups = [(0.0, 0.0); 2];
    for (gi, g) in mix.groups.iter().enumerate() {
        let bw = res.aggregate_bps(|l| l == g.label) / f64::from(g.count);
        let standalone = standalone_bw(g.fio, mix.pre, quick);
        groups[gi] = (bw, f_util(bw, standalone, total));
    }
    MixResult {
        groups,
        latency: res.group_latency(|_| true),
    }
}

/// Run the experiment and print bandwidth + f-Util panels.
pub fn run(quick: bool) {
    println_header("Figure 7: fairness in mixed workloads");
    for mix in mixes() {
        println!("\n-- {} --", mix.name);
        println!(
            "{:>9} {:>8}: {:>12} {:>8}   {:>8}: {:>12} {:>8}",
            "Scheme",
            mix.groups[0].label,
            "MB/s/worker",
            "f-Util",
            mix.groups[1].label,
            "MB/s/worker",
            "f-Util"
        );
        for scheme in Scheme::COMPARED {
            let r = run_mix(&mix, scheme, quick);
            println!(
                "{:>9} {:>8}: {:>12.1} {:>8.2}   {:>8}: {:>12.1} {:>8.2}",
                scheme.name(),
                mix.groups[0].label,
                r.groups[0].0 / 1e6,
                r.groups[0].1,
                mix.groups[1].label,
                r.groups[1].0 / 1e6,
                r.groups[1].1,
            );
        }
    }
}
