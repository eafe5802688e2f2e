//! The claim scoreboard: every [`crate::claims::CLAIMS`] entry with the
//! verdict EXPERIMENTS.md publishes, the verdict the claim pins, and the
//! measured evidence.

use crate::claims::{published_verdict, CLAIMS, EXPERIMENTS_MD};
use crate::common::println_header;

/// Run every claim and print the table. Claims are pinned at quick
/// settings, so `quick` does not change what runs.
pub(crate) fn run(quick: bool) {
    let _ = quick;
    println_header("Scoreboard: paper claims on the figures' own experiments (quick settings)");
    println!(
        "{:<52} {:>9} {:>7}  Measured",
        "Claim", "Published", "Pinned"
    );
    for c in &CLAIMS {
        let published = published_verdict(EXPERIMENTS_MD, c.heading).unwrap_or("?");
        let measured = c
            .verify(EXPERIMENTS_MD)
            .unwrap_or_else(|e| format!("FAIL: {e}"));
        println!(
            "{:<52} {:>9} {:>7}  {measured}",
            c.name, published, c.verdict
        );
    }
}
