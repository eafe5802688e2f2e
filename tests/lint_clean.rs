//! Tier-1 gate for the determinism policy (DESIGN.md §12).
//!
//! The rules are clippy lints. The root `clippy.toml` forbids unordered
//! maps (D1), ambient time and environment (D2) and interior mutability
//! (D8); `[workspace.lints]` turns on float equality (D3) and panics in
//! library code (D5); the accounting files deny truncating casts (D7). A
//! site that needs one of them carries a reasoned
//! `#[expect(clippy::…, reason = "…")]`, which fails the build once it
//! suppresses nothing. `cargo test` fails here if clippy does, if the
//! configuration stops reaching clippy, if the waivers grow, or on D9, the
//! one rule clippy cannot express.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn workspace() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `cargo clippy` on `manifest` with the workspace's configuration, in its
/// own target directory so it never waits on the build running the tests.
/// A missing clippy fails the caller's assertion; nothing is skipped.
fn clippy(manifest: &Path, target: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO"))
        .args(["clippy", "--all-targets", "--offline", "--quiet"])
        .arg("--manifest-path")
        .arg(manifest)
        .arg("--target-dir")
        .arg(target)
        .args(extra)
        .env("CLIPPY_CONF_DIR", workspace())
        .output()
        .expect("cargo can be started")
}

#[test]
fn workspace_has_no_determinism_lint_errors() {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy");
    let out = clippy(
        &workspace().join("Cargo.toml"),
        &target,
        &["--workspace", "--", "-D", "warnings"],
    );
    assert!(
        out.status.success(),
        "cargo clippy --workspace --all-targets -- -D warnings failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A one-file crate that breaks D1, D2 (twice) and D8 must draw all four
/// reports from the workspace configuration: a renamed or mistyped
/// `clippy.toml` cannot switch those rules off without failing here.
#[test]
fn clippy_config_reaches_clippy() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-config-probe");
    fs::create_dir_all(dir.join("src")).expect("probe dir");
    fs::write(
        dir.join("Cargo.toml"),
        "[package]\nname = \"probe\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n[workspace]\n",
    )
    .expect("probe manifest");
    fs::write(
        dir.join("src/lib.rs"),
        "pub fn d1() -> std::collections::HashMap<u32, u32> {\n    Default::default()\n}\n\
         pub fn d2_time() -> std::time::Instant {\n    std::time::Instant::now()\n}\n\
         pub fn d2_env() -> bool {\n    std::env::var(\"PROBE\").is_ok()\n}\n\
         pub fn d8() -> std::cell::RefCell<u32> {\n    std::cell::RefCell::new(0)\n}\n",
    )
    .expect("probe source");
    let out = clippy(&dir.join("Cargo.toml"), &dir.join("target"), &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    for expected in [
        "disallowed type `std::collections::HashMap`",
        "disallowed method `std::time::Instant::now`",
        "disallowed method `std::env::var`",
        "disallowed type `std::cell::RefCell`",
    ] {
        assert!(
            stderr.contains(expected),
            "clippy did not report `{expected}`; is clippy.toml live?\n{stderr}"
        );
    }
}

/// Whether a manifest opts into `[workspace.lints]` with `[lints]
/// workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

/// `[workspace.lints]` (`unreachable_pub`, D3, D5) reaches only the
/// packages that opt in: the root package and every member crate must.
#[test]
fn every_package_inherits_the_workspace_lints() {
    let mut manifests = vec![workspace().join("Cargo.toml")];
    for member in fs::read_dir(workspace().join("crates")).expect("crates/") {
        let manifest = member.expect("readable entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(
        manifests.len() > 10,
        "suspiciously few manifests: {}",
        manifests.len()
    );
    let missing: Vec<String> = manifests
        .iter()
        .filter(|m| !inherits_workspace_lints(&fs::read_to_string(m).expect("readable manifest")))
        .map(|m| m.display().to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "manifests without `[lints] workspace = true`:\n{}",
        missing.join("\n")
    );
    assert!(!inherits_workspace_lints(
        "[dependencies]\nfoo.workspace = true\n\n[lints.rust]\nunsafe_code = \"deny\"\n"
    ));
}

/// Every `.rs` file under `src/` and `crates/*/src`, by path relative to
/// the workspace, cut at its first top-level `#[cfg(test)]` (each file's
/// test module comes last), as `scripts/loc.sh` counts non-test lines.
fn non_test_sources() -> Vec<(PathBuf, String)> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("readable entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&workspace().join("src"), &mut files);
    for member in fs::read_dir(workspace().join("crates")).expect("crates/") {
        let src = member.expect("readable entry").path().join("src");
        if src.is_dir() {
            walk(&src, &mut files);
        }
    }
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path).expect("readable source");
            let cut = text.find("\n#[cfg(test)]").map_or(text.len(), |i| i + 1);
            let rel = path.strip_prefix(workspace()).expect("under the workspace");
            (rel.to_owned(), text[..cut].to_string())
        })
        .collect()
}

/// The scans below must reach every member crate, the telemetry crate
/// included; a broken walk would pass D9 and the ratchet vacuously.
#[test]
fn lint_covers_the_telemetry_crate() {
    let files = non_test_sources();
    assert!(
        files.len() > 100,
        "suspiciously few files scanned: {}",
        files.len()
    );
    assert!(files
        .iter()
        .any(|(path, _)| path == Path::new("crates/telemetry/src/tracer.rs")));
}

/// Ratchet: every waiver is a clippy `expect` (or `allow`) in non-test
/// code, with a reason. Its budget only falls. A new waiver must retire an
/// old one or lower this.
const WAIVER_BUDGET: usize = 14;

#[test]
fn all_waivers_are_active_and_well_formed() {
    let mut waivers = Vec::new();
    for (path, text) in non_test_sources() {
        for open in ["#[allow(", "#![allow(", "#[expect(", "#![expect("] {
            for (at, _) in text.match_indices(open) {
                let body = &text[at + open.len()..];
                if !body.trim_start().starts_with("clippy::") {
                    continue;
                }
                let attr = &body[..body.find(")]").unwrap_or(body.len())];
                let line = text[..at].lines().count() + 1;
                assert!(
                    attr.contains("reason = "),
                    "{}:{line}: waiver without a reason",
                    path.display()
                );
                waivers.push(format!("{}:{line}", path.display()));
            }
        }
    }
    assert!(
        waivers.len() <= WAIVER_BUDGET,
        "{} clippy waivers (budget {WAIVER_BUDGET}):\n{}",
        waivers.len(),
        waivers.join("\n")
    );
}

/// Constructor heads whose argument must not hold raw arithmetic (D9).
const TIME_CTORS: [&str; 10] = [
    "SimTime::from_nanos(",
    "SimTime::from_micros(",
    "SimTime::from_millis(",
    "SimTime::from_secs(",
    "SimDuration::from_nanos(",
    "SimDuration::from_micros(",
    "SimDuration::from_millis(",
    "SimDuration::from_secs(",
    "SimTime(",
    "SimDuration(",
];

/// D9: raw `+`/`-`/`*` inside a `SimTime`/`SimDuration` constructor, or
/// `+=`/`-=` on an epoch counter. Overflow panics in debug builds and wraps
/// in release, so one seed would run differently per profile. Lines that
/// already use saturating, checked or wrapping ops pass.
fn unchecked_time_arith(line: &str) -> bool {
    let code = line.trim_start();
    if code.starts_with("//")
        || ["saturating_", "checked_", "wrapping_"]
            .iter()
            .any(|op| code.contains(op))
    {
        return false;
    }
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    for ctor in TIME_CTORS {
        for (at, _) in code.match_indices(ctor) {
            if at > 0 && ident(code.as_bytes()[at - 1]) {
                continue;
            }
            let mut depth = 1;
            let arg = &code[at + ctor.len()..];
            let end = arg
                .char_indices()
                .find(|&(_, c)| {
                    depth += match c {
                        '(' => 1,
                        ')' => -1,
                        _ => 0,
                    };
                    depth == 0
                })
                .map_or(arg.len(), |(i, _)| i);
            if [" + ", " - ", " * "]
                .iter()
                .any(|op| arg[..end].contains(op))
            {
                return true;
            }
        }
    }
    (code.contains("+=") || code.contains("-="))
        && code
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .any(|word| word.contains("epoch"))
}

/// D9 holds in every crate. The root package stays outside it for one site:
/// the CLI's rack fault instants (`rack_fault_config` in
/// `src/bin/jbofsim.rs`) scale `--duration-ms` in `f64`, and the final
/// `as u64` cast saturates, so that argument cannot overflow.
const D9_EXEMPT: [&str; 1] = ["src"];

#[test]
fn time_arithmetic_is_checked() {
    let found: Vec<String> = non_test_sources()
        .iter()
        .filter(|(path, _)| !D9_EXEMPT.iter().any(|dir| path.starts_with(dir)))
        .flat_map(|(path, text)| {
            text.lines()
                .enumerate()
                .filter(|(_, line)| unchecked_time_arith(line))
                .map(move |(i, line)| format!("{}:{}: {}", path.display(), i + 1, line.trim()))
        })
        .collect();
    assert!(
        found.is_empty(),
        "unchecked SimTime/SimDuration/epoch arithmetic (D9); use saturating or checked ops:\n{}",
        found.join("\n")
    );
}

#[test]
fn time_arithmetic_rule_flags_what_it_names() {
    for bad in [
        "    SimTime::from_nanos(a + b)",
        "let d = SimDuration::from_micros(x * 1000);",
        "SimTime(self.0 - rhs.0)",
        "line.dirty_epoch += 1;",
    ] {
        assert!(unchecked_time_arith(bad), "missed: {bad}");
    }
    for good in [
        "SimTime::from_nanos(a.saturating_add(b))",
        "SimTime::from_micros(us)",
        "// SimTime::from_nanos(a + b)",
        "MySimTime(a + b)",
        "let t = SimTime::from_nanos(a) + d;",
        "total += len;",
    ] {
        assert!(!unchecked_time_arith(good), "false positive: {good}");
    }
}
