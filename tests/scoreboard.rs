//! Headline results of the paper, pinned as regression tests: one test per
//! [`gimbal_bench::claims`] claim. Each reruns the cells of its figure's
//! own experiment at quick settings, asserts the paper's shape, and checks
//! the verdict EXPERIMENTS.md publishes in that figure's heading. Print the
//! whole table with `cargo run --release -p gimbal-bench --bin figures --
//! scoreboard`.

use gimbal_bench::claims::{self, Claim, EXPERIMENTS_MD};

fn verify(claim: &Claim) {
    if let Err(why) = claim.verify(EXPERIMENTS_MD) {
        panic!("{}: {why}", claim.name);
    }
}

#[test]
fn fig04_intensity_steals_bandwidth_without_isolation() {
    verify(&claims::FIG04);
}

#[test]
fn fig06_reflex_underutilizes_clean_reads() {
    verify(&claims::FIG06);
}

#[test]
fn fig07_gimbal_grants_large_ios_their_efficiency() {
    verify(&claims::FIG07);
}

#[test]
fn fig08_gimbal_bounds_write_tails_under_consolidation() {
    verify(&claims::FIG08);
}

#[test]
fn fig09_first_writer_is_absorbed_by_the_buffer() {
    verify(&claims::FIG09);
}

#[test]
fn fig10_gimbal_leads_ycsb_a_throughput() {
    verify(&claims::FIG10);
}

#[test]
fn s58_gimbal_generalizes_to_the_p3600_profile() {
    verify(&claims::S58);
}
