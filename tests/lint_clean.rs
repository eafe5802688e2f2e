//! Tier-1 gate: the workspace must be free of determinism-lint errors.
//!
//! This is the wiring the determinism policy hangs on — `cargo test` fails
//! if anyone reintroduces a `HashMap`, a wall-clock read, a float equality,
//! a truncating accounting cast (D7), un-whitelisted shared state (D8), or
//! unchecked time arithmetic (D9) into a simulation crate without a
//! reasoned waiver — and fails again if a waiver goes stale (expired or
//! orphaned). Run `cargo run -p gimbal-lint` for the same report from the
//! command line, `-- --waivers` for the waiver ledger.

use std::path::Path;

use gimbal_lint::{format_human, run_workspace, Severity};

#[test]
fn workspace_has_no_determinism_lint_errors() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = run_workspace(root).expect("lint scan must be able to read the workspace");

    assert!(
        report.files_scanned > 30,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );

    let errors: Vec<String> = report.errors().map(format_human).collect();
    assert!(
        errors.is_empty(),
        "determinism lint found {} error(s):\n{}",
        errors.len(),
        errors.join("\n")
    );
}

#[test]
fn lint_reports_warnings_without_failing() {
    // D4 (unwrap reachable from the poll loop), D5 (panics in lib code)
    // and D6 (telemetry record-path allocation) are advisory: make sure
    // warnings are surfaced through the API but never escalate to errors.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = run_workspace(root).expect("lint scan must be able to read the workspace");
    for w in report.warnings() {
        assert_eq!(w.severity, Severity::Warning);
        assert!(
            matches!(w.rule.code(), "D4" | "D5" | "D6"),
            "unexpected advisory rule: {}",
            format_human(w)
        );
    }
}

#[test]
fn lint_covers_the_telemetry_crate() {
    // The scan must include `crates/telemetry` (D6's only target); guard
    // against the crate silently dropping out of the source-root walk.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(root.join("crates/telemetry/src/lib.rs").is_file());
    let report = run_workspace(root).expect("lint scan must be able to read the workspace");
    assert!(
        report.files_scanned > 100,
        "telemetry sources missing from the scan: {} files",
        report.files_scanned
    );
}

#[test]
fn call_graph_index_finds_the_reactor_roots() {
    // D4's reachability analysis is only as good as the index under it:
    // if the poll-loop roots stop resolving (rename, move), D4 would
    // silently report nothing. Every root must name an indexed fn.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = run_workspace(root).expect("lint scan must be able to read the workspace");
    assert!(
        report.unresolved_roots.is_empty(),
        "reactor roots name no indexed fn: {:?}",
        report.unresolved_roots
    );
    assert!(
        report.fns_indexed > 500,
        "suspiciously small symbol index: {} fns",
        report.fns_indexed
    );
    assert!(
        report.fns_hot > 50,
        "reactor roots unresolved: only {} hot fns (of {})",
        report.fns_hot,
        report.fns_indexed
    );
    assert!(
        report.fns_hot < report.fns_indexed,
        "reachability collapsed: every fn is hot"
    );
}

#[test]
fn all_waivers_are_active_and_well_formed() {
    // Waiver hygiene is part of tier-1: a malformed waiver (missing
    // owner/expiry/reason) is an error finding, and an expired or orphaned
    // one is debt the audit mode rejects. Keep the ledger clean here so CI
    // and `--waivers` never disagree.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = run_workspace(root).expect("lint scan must be able to read the workspace");
    assert!(
        !report.waivers.is_empty(),
        "waiver scan found nothing — parser broken?"
    );
    // Ratchet: the ledger only shrinks (13 → 12 when the engine's env-var
    // debug print went, 12 → 9 when DetMap's four index waivers became one
    // on its index type). A new waiver must retire an old one or lower this.
    assert!(
        report.waivers.len() <= 9,
        "waiver ledger grew to {} (budget 9)",
        report.waivers.len()
    );
    let orphaned: Vec<String> = report
        .orphaned_waivers()
        .map(|w| format!("{}:{} {}", w.file, w.site.line, w.site.slug))
        .collect();
    assert!(
        orphaned.is_empty(),
        "orphaned waivers (suppress nothing — delete them):\n{}",
        orphaned.join("\n")
    );
    let expired: Vec<String> = report
        .expired_waivers()
        .map(|w| format!("{}:{} {}", w.file, w.site.line, w.site.slug))
        .collect();
    assert!(
        expired.is_empty(),
        "expired waivers (renew or fix the code):\n{}",
        expired.join("\n")
    );
}
