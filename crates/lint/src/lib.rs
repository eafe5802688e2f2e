//! `gimbal-audit` (binary name `gimbal-lint`) — static determinism checks
//! for the Gimbal workspace.
//!
//! The simulation's core promise is that one seed pins down an entire run,
//! byte for byte. The compiler cannot enforce that: `HashMap` iteration
//! order, wall-clock reads, and environment lookups all type-check fine and
//! then quietly make two identical runs diverge. This crate is the
//! enforcement layer: a dependency-free scanner that walks every crate's
//! `src/` tree, strips comments and literals with a small lexer, builds a
//! workspace symbol/call-graph index ([`index`]), and applies the
//! determinism rules D1–D9 (see [`rules`]) with per-crate rule sets. Rule
//! D4 uses the index to scope itself to functions reachable from the
//! reactor poll loop instead of a crate-name heuristic.
//!
//! It runs four ways:
//!
//! * `cargo run -p gimbal-lint` — human-readable report, non-zero exit on
//!   errors;
//! * `cargo run -p gimbal-lint -- --json` — one JSON object per finding
//!   (machine-readable, for CI annotation);
//! * `cargo run -p gimbal-lint -- --waivers` — audit every waiver in the
//!   tree; non-zero exit on expired or orphaned (no-longer-suppressing)
//!   waivers;
//! * `cargo test` — `tests/lint_clean.rs` calls [`run_workspace`] and fails
//!   the tier-1 suite if any error-level finding exists.

pub mod index;
pub mod lexer;
pub mod rules;

pub use index::{WorkspaceIndex, REACTOR_ROOTS};
pub use rules::{
    check_file, check_file_ctx, parse_date, ruleset_for, Date, FileCtx, Finding, RuleId, RuleSet,
    Severity, WaiverSite,
};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One waiver with its location, for the audit mode.
#[derive(Clone, Debug)]
pub struct WaiverRecord {
    /// Path relative to the workspace root.
    pub file: String,
    pub site: WaiverSite,
}

/// The outcome of scanning a workspace.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All findings, ordered by file path then line.
    pub findings: Vec<Finding>,
    /// Every waiver comment encountered, in file/line order.
    pub waivers: Vec<WaiverRecord>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Functions in the call-graph index.
    pub fns_indexed: usize,
    /// Name-resolved call edges in the index.
    pub call_edges: usize,
    /// Functions reachable from the reactor poll roots.
    pub fns_hot: usize,
    /// Reactor roots that name no indexed function (a rename or move that
    /// would silently shrink the hot set).
    pub unresolved_roots: Vec<&'static str>,
}

impl Report {
    /// Error-level findings (these fail the build).
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
    }

    /// Warning-level findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
    }

    /// Waivers that suppressed at least one finding.
    pub fn waivers_used(&self) -> usize {
        self.waivers.iter().filter(|w| w.site.used).count()
    }

    /// Valid, unexpired waivers that suppressed nothing: the rule they once
    /// covered is gone and the waiver should be deleted.
    pub fn orphaned_waivers(&self) -> impl Iterator<Item = &WaiverRecord> {
        self.waivers
            .iter()
            .filter(|w| w.site.valid && !w.site.expired && !w.site.used)
    }

    /// Waivers past their expiry date.
    pub fn expired_waivers(&self) -> impl Iterator<Item = &WaiverRecord> {
        self.waivers.iter().filter(|w| w.site.expired)
    }
}

/// Collect `.rs` files under `dir`, recursively, in sorted order (the lint's
/// own output must be deterministic too).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The source roots to scan: `(crate-name, src-dir)` pairs. `"root"` is the
/// top-level `gimbal-repro` package; everything else is a `crates/*` member.
fn source_roots(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut roots = Vec::new();
    let top_src = root.join("src");
    if top_src.is_dir() {
        roots.push(("root".to_string(), top_src));
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                let name = member
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                roots.push((name, src));
            }
        }
    }
    Ok(roots)
}

/// Today's date from the system clock (the lint runs on the host, outside
/// the simulation — the ambient-time rule does not apply to the tool
/// itself). Civil-from-days per Howard Hinnant's algorithm.
pub fn current_date() -> Date {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u8;
    let y = if m <= 2 { y + 1 } else { y };
    (y as u16, m, d)
}

/// One scanned source file: its crate, its path relative to the workspace
/// root, and its text.
pub type SourceFile = (String, String, String);

/// Read every source file of the workspace rooted at `root` and build its
/// call-graph index.
pub fn index_workspace(root: &Path) -> io::Result<(WorkspaceIndex, Vec<SourceFile>)> {
    let mut files = Vec::new();
    let mut ix = WorkspaceIndex::new();
    for (crate_name, src_dir) in source_roots(root)? {
        let mut paths = Vec::new();
        collect_rs_files(&src_dir, &mut paths)?;
        for path in paths {
            let source = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            ix.add_file(&crate_name, &rel, &lexer::strip_non_code(&source));
            files.push((crate_name.clone(), rel, source));
        }
    }
    ix.finish();
    Ok((ix, files))
}

/// Scan the workspace rooted at `root` and return every finding, using
/// `today` for waiver expiry.
pub fn run_workspace_at(root: &Path, today: Date) -> io::Result<Report> {
    // Pass 1: read everything and build the call-graph index.
    let (ix, files) = index_workspace(root)?;
    let reach = ix.reachable(REACTOR_ROOTS);
    let hot = ix.hot_ranges(&reach);

    let mut report = Report {
        files_scanned: files.len(),
        fns_indexed: ix.fns.len(),
        call_edges: ix.edge_count(),
        fns_hot: reach.iter().filter(|&&r| r).count(),
        unresolved_roots: REACTOR_ROOTS
            .iter()
            .filter(|r| !ix.resolves(r))
            .map(|r| r.qualified)
            .collect(),
        ..Report::default()
    };

    // Pass 2: rule checks with per-file hot ranges.
    for (crate_name, rel, source) in &files {
        let empty: &[(usize, usize)] = &[];
        let ranges = hot.get(rel).map(|v| v.as_slice()).unwrap_or(empty);
        let ctx = FileCtx {
            rules: ruleset_for(crate_name),
            hot_ranges: Some(ranges),
            today,
        };
        let (mut findings, sites) = check_file_ctx(rel, source, &ctx);
        report.findings.append(&mut findings);
        report
            .waivers
            .extend(sites.into_iter().map(|site| WaiverRecord {
                file: rel.clone(),
                site,
            }));
    }
    Ok(report)
}

/// Scan the workspace rooted at `root` with today's date.
pub fn run_workspace(root: &Path) -> io::Result<Report> {
    run_workspace_at(root, current_date())
}

/// Render one finding for terminals: `path:line: severity[code/slug]: message`.
pub fn format_human(f: &Finding) -> String {
    let sev = match f.severity {
        Severity::Error => "error",
        Severity::Warning => "warning",
    };
    format!(
        "{}:{}: {}[{}/{}]: {}\n    {}",
        f.file,
        f.line,
        sev,
        f.rule.code(),
        f.rule.slug(),
        f.rule.message(),
        f.snippet
    )
}

/// JSON string escape (hand-rolled because the crate is dependency-free).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render one finding as a JSON object (one per line).
pub fn format_json(f: &Finding) -> String {
    format!(
        "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"slug\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\",\"snippet\":\"{}\"}}",
        esc(&f.file),
        f.line,
        f.rule.code(),
        f.rule.slug(),
        match f.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        },
        esc(f.rule.message()),
        esc(&f.snippet)
    )
}

/// Render one waiver record as a JSON object (one per line, audit mode).
pub fn format_waiver_json(w: &WaiverRecord) -> String {
    let expires = match w.site.expires {
        Some((y, m, d)) => format!("\"{y:04}-{m:02}-{d:02}\""),
        None => "null".to_string(),
    };
    let status = if !w.site.valid {
        "malformed"
    } else if w.site.expired {
        "expired"
    } else if w.site.used {
        "active"
    } else {
        "orphaned"
    };
    format!(
        "{{\"file\":\"{}\",\"line\":{},\"slug\":\"{}\",\"owner\":\"{}\",\"expires\":{},\"status\":\"{}\"}}",
        esc(&w.file),
        w.site.line,
        esc(&w.site.slug),
        esc(&w.site.owner),
        expires,
        status
    )
}

/// Render one waiver record for terminals.
pub fn format_waiver_human(w: &WaiverRecord) -> String {
    let expires = match w.site.expires {
        Some((y, m, d)) => format!("{y:04}-{m:02}-{d:02}"),
        None => "????-??-??".to_string(),
    };
    let status = if !w.site.valid {
        "MALFORMED"
    } else if w.site.expired {
        "EXPIRED"
    } else if w.site.used {
        "active"
    } else {
        "ORPHANED"
    };
    format!(
        "{}:{}: {} owner={} expires={} [{}]",
        w.file, w.site.line, w.site.slug, w.site.owner, expires, status
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::RootSpec;

    /// Generic dispatch from the shared reactor loop must not drop an
    /// engine's handlers out of the hot set that D4 and D8 scope to:
    /// `unresolved_roots` only notices a renamed root, not a handler the
    /// call graph no longer reaches.
    #[test]
    fn engine_handlers_stay_reachable_from_the_reactor_roots() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let (ix, _) = index_workspace(&root).expect("the workspace is readable");
        let reach = ix.reachable(REACTOR_ROOTS);
        let handlers = [
            ("testbed", "Testbed::complete"),
            ("testbed", "Testbed::try_issue"),
            ("testbed", "KvTestbed::settle"),
            ("testbed", "KvTestbed::refill"),
            ("rack", "RackTestbed::side_done"),
            ("rack", "RackTestbed::timeout"),
            ("testbed", "Node::deliver"),
            ("testbed", "Node::wake"),
        ];
        for (crate_name, qualified) in handlers {
            let spec = RootSpec {
                crate_name,
                qualified,
            };
            assert!(ix.resolves(&spec), "{qualified} names no indexed fn");
            let hot = ix.fns.iter().zip(&reach).any(|(f, &r)| {
                r && f.crate_name == crate_name && f.qualified == qualified && !f.in_test
            });
            assert!(hot, "{qualified} is not reachable from the reactor roots");
        }
    }

    #[test]
    fn json_escaping() {
        let f = Finding {
            file: "a\\b.rs".into(),
            line: 3,
            rule: RuleId::UnorderedMap,
            severity: Severity::Error,
            snippet: "let s = \"x\";".into(),
        };
        let j = format_json(&f);
        assert!(j.contains("\"file\":\"a\\\\b.rs\""));
        assert!(j.contains("\\\"x\\\""));
        assert!(j.contains("\"rule\":\"D1\""));
    }

    #[test]
    fn waiver_json_statuses() {
        let mk = |valid, expired, used| WaiverRecord {
            file: "x.rs".into(),
            site: WaiverSite {
                line: 1,
                slug: "unordered-map".into(),
                owner: "core".into(),
                expires: Some((2099, 1, 1)),
                has_reason: true,
                valid,
                expired,
                used,
            },
        };
        assert!(format_waiver_json(&mk(true, false, true)).contains("\"status\":\"active\""));
        assert!(format_waiver_json(&mk(true, false, false)).contains("\"status\":\"orphaned\""));
        assert!(format_waiver_json(&mk(true, true, false)).contains("\"status\":\"expired\""));
        assert!(format_waiver_json(&mk(false, false, false)).contains("\"status\":\"malformed\""));
        assert!(format_waiver_json(&mk(true, false, true)).contains("\"expires\":\"2099-01-01\""));
    }

    #[test]
    fn current_date_is_sane() {
        let (y, m, d) = current_date();
        assert!((2024..2200).contains(&y), "{y}");
        assert!((1..=12).contains(&m));
        assert!((1..=31).contains(&d));
    }
}
