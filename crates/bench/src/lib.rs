//! The benchmark harness: one module per table/figure of the paper's
//! evaluation, regenerating the same rows/series.
//!
//! Each figure lives in [`figs`] as a `run(quick: bool)` function, named in
//! the [`figs::ALL`] registry that the `figures` binary runs
//! (`cargo run --release -p gimbal-bench --bin figures -- [--quick] NAME…`):
//!
//! * `quick = false` — full-scale parameters;
//! * `quick = true` — shortened durations / fewer points, so the whole
//!   evaluation regenerates in minutes (`figures --quick all`).
//!
//! [`claims`] pins the paper's headline shapes on the figures' own
//! experiments, against the verdicts EXPERIMENTS.md publishes.
//!
//! Absolute numbers come from the simulated substrate, not the authors'
//! Stingray testbed; EXPERIMENTS.md records paper-vs-measured for each
//! experiment and discusses where the shapes match.

pub mod claims;
pub mod common;
pub mod figs;

pub use common::{println_header, standalone_bw, Region};
