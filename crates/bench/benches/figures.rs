//! `cargo bench` entry point that regenerates **every table and figure** of
//! the paper in quick mode. Each figure is also available at full scale as
//! a standalone binary (`cargo run -p gimbal-bench --release --bin figNN_…`).
//!
//! This is a `harness = false` bench target: the "benchmark" is the
//! experiment suite itself, and its output is the paper's rows/series.

use std::time::Instant;

/// A quick-mode figure harness: takes `quick` and prints the paper's rows.
type FigRun = fn(bool);

fn main() {
    // Respect `cargo bench -- <filter>`: run only figures whose name
    // contains the filter string. The `--bench` flag cargo passes is
    // ignored.
    let filter: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let want = |name: &str| filter.is_empty() || filter.iter().any(|f| name.contains(f.as_str()));

    let figs: Vec<(&str, FigRun)> = vec![
        (
            "fig02_unloaded_latency",
            gimbal_bench::figs::fig02_unloaded_latency::run,
        ),
        (
            "fig03_cores_throughput",
            gimbal_bench::figs::fig03_cores_throughput::run,
        ),
        (
            "fig04_interference",
            gimbal_bench::figs::fig04_interference::run,
        ),
        (
            "fig06_utilization",
            gimbal_bench::figs::fig06_utilization::run,
        ),
        ("fig07_fairness", gimbal_bench::figs::fig07_fairness::run),
        ("fig08_latency", gimbal_bench::figs::fig08_latency::run),
        ("fig09_dynamic", gimbal_bench::figs::fig09_dynamic::run),
        ("fig10_ycsb", gimbal_bench::figs::fig10_ycsb::run),
        (
            "fig11_12_scalability",
            gimbal_bench::figs::fig11_12_scalability::run,
        ),
        (
            "fig13_virtual_view",
            gimbal_bench::figs::fig13_virtual_view::run,
        ),
        ("fig14_bathtub", gimbal_bench::figs::fig14_bathtub::run),
        (
            "fig15_read_latency",
            gimbal_bench::figs::fig15_read_latency::run,
        ),
        ("fig16_percost", gimbal_bench::figs::fig16_percost::run),
        (
            "fig17_congestion",
            gimbal_bench::figs::fig17_congestion::run,
        ),
        ("fig18_threshold", gimbal_bench::figs::fig18_threshold::run),
        ("fig19_intensity", gimbal_bench::figs::fig19_intensity::run),
        ("fig20_iosize", gimbal_bench::figs::fig20_iosize::run),
        ("fig21_pattern", gimbal_bench::figs::fig21_pattern::run),
        (
            "fig22_23_mixed_latency",
            gimbal_bench::figs::fig22_23_mixed_latency::run,
        ),
        ("tab1_overheads", gimbal_bench::figs::tab1_overheads::run),
        ("tab2_comparison", gimbal_bench::figs::tab2_comparison::run),
        ("gen_p3600", gimbal_bench::figs::gen_p3600::run),
        ("abl_threshold", gimbal_bench::figs::abl_threshold::run),
        ("abl_bucket_cost", gimbal_bench::figs::abl_bucket_cost::run),
        ("abl_slots", gimbal_bench::figs::abl_slots::run),
        ("abl_cache", gimbal_bench::figs::abl_cache::run),
    ];

    let total = Instant::now();
    for (name, run) in figs {
        if !want(name) {
            continue;
        }
        let t = Instant::now();
        run(true);
        eprintln!("[{name}: {:.1}s]", t.elapsed().as_secs_f64());
    }
    eprintln!("\n[all figures: {:.1}s]", total.elapsed().as_secs_f64());
}
