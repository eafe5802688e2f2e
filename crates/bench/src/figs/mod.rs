//! One module per table/figure of the paper's evaluation. Each exposes
//! `run(quick: bool)`, printing the same rows/series the paper reports;
//! [`ALL`] names them for the `figures` binary.

pub mod abl_bucket_cost;
pub mod abl_cache;
pub mod abl_slots;
pub mod abl_threshold;
pub mod fig02_unloaded_latency;
pub mod fig03_cores_throughput;
pub mod fig04_interference;
pub mod fig06_utilization;
pub mod fig07_fairness;
pub mod fig08_latency;
pub mod fig09_dynamic;
pub mod fig10_ycsb;
pub mod fig11_12_scalability;
pub mod fig13_virtual_view;
pub mod fig14_bathtub;
pub mod fig15_read_latency;
pub mod fig16_percost;
pub mod fig17_congestion;
pub mod fig18_threshold;
pub mod fig19_intensity;
pub mod fig20_iosize;
pub mod fig21_pattern;
pub mod fig22_23_mixed_latency;
pub mod gen_p3600;
pub mod scoreboard;
pub mod tab1_overheads;
pub mod tab2_comparison;

/// The registry's name for the claim table, which is not a paper figure.
pub const SCOREBOARD: &str = "scoreboard";

/// A figure harness: takes `quick` and prints the paper's rows.
pub type FigRun = fn(bool);

/// Every figure and table, in run order, then the claim [`scoreboard`].
pub const ALL: &[(&str, FigRun)] = &[
    ("fig02_unloaded_latency", fig02_unloaded_latency::run),
    ("fig03_cores_throughput", fig03_cores_throughput::run),
    ("fig04_interference", fig04_interference::run),
    ("fig06_utilization", fig06_utilization::run),
    ("fig07_fairness", fig07_fairness::run),
    ("fig08_latency", fig08_latency::run),
    ("fig09_dynamic", fig09_dynamic::run),
    ("fig10_ycsb", fig10_ycsb::run),
    ("fig11_12_scalability", fig11_12_scalability::run),
    ("fig13_virtual_view", fig13_virtual_view::run),
    ("fig14_bathtub", fig14_bathtub::run),
    ("fig15_read_latency", fig15_read_latency::run),
    ("fig16_percost", fig16_percost::run),
    ("fig17_congestion", fig17_congestion::run),
    ("fig18_threshold", fig18_threshold::run),
    ("fig19_intensity", fig19_intensity::run),
    ("fig20_iosize", fig20_iosize::run),
    ("fig21_pattern", fig21_pattern::run),
    ("fig22_23_mixed_latency", fig22_23_mixed_latency::run),
    ("tab1_overheads", tab1_overheads::run),
    ("tab2_comparison", tab2_comparison::run),
    ("gen_p3600", gen_p3600::run),
    ("abl_threshold", abl_threshold::run),
    ("abl_bucket_cost", abl_bucket_cost::run),
    ("abl_slots", abl_slots::run),
    ("abl_cache", abl_cache::run),
    (SCOREBOARD, scoreboard::run),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = ALL.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len(), "duplicate name in figs::ALL");
    }

    #[test]
    fn every_figure_module_is_registered() {
        let modules = include_str!("mod.rs")
            .lines()
            .filter(|l| l.starts_with("pub mod "))
            .count();
        assert_eq!(ALL.len(), modules, "a figs module is missing from ALL");
    }
}
