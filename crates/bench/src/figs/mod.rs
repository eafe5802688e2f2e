//! One module per table/figure of the paper's evaluation. Each exposes
//! `run(quick: bool)`, printing the same rows/series the paper reports;
//! [`ALL`] names them for the `figures` binary.

mod abl_bucket_cost;
mod abl_cache;
mod abl_slots;
mod abl_threshold;
mod fig02_unloaded_latency;
mod fig03_cores_throughput;
pub(crate) mod fig04_interference;
pub(crate) mod fig06_utilization;
pub(crate) mod fig07_fairness;
mod fig08_latency;
pub(crate) mod fig09_dynamic;
pub(crate) mod fig10_ycsb;
mod fig11_12_scalability;
mod fig13_virtual_view;
mod fig14_bathtub;
mod fig15_read_latency;
mod fig16_percost;
mod fig17_congestion;
mod fig18_threshold;
mod fig19_intensity;
mod fig20_iosize;
mod fig21_pattern;
mod fig22_23_mixed_latency;
pub(crate) mod gen_p3600;
mod scoreboard;
mod tab1_overheads;
mod tab2_comparison;

/// The registry's name for the claim table, which is not a paper figure.
pub const SCOREBOARD: &str = "scoreboard";

/// A figure harness: takes `quick` and prints the paper's rows.
pub(crate) type FigRun = fn(bool);

/// Every figure and table, in run order, then the claim `scoreboard`.
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
            .filter(|l| l.trim_start_matches("pub(crate) ").starts_with("mod ") && l.ends_with(';'))
            .count();
        assert_eq!(ALL.len(), modules, "a figs module is missing from ALL");
    }
}
