//! The determinism rules (D1–D9) and the per-crate rule sets.
//!
//! Policy (also documented in `DESIGN.md` § Determinism policy):
//!
//! * **D1 `unordered-map`** — `std::collections::HashMap`/`HashSet` are
//!   forbidden in simulation crates: their iteration order is randomized per
//!   process, so any iterated map silently breaks seed-reproducibility. Use
//!   `gimbal_sim::collections::{DetMap, DetSet}` or `BTreeMap`/`BTreeSet`.
//! * **D2 `ambient-time-env`** — `std::time::Instant`/`SystemTime`,
//!   `rand::thread_rng`, and `std::env` are forbidden in simulation crates:
//!   all time must be virtual (`SimTime`) and all entropy seeded (`SimRng`).
//! * **D3 `float-eq`** — exact `==`/`!=` against float literals is forbidden
//!   in core crates: such comparisons are brittle under any re-ordering of
//!   accumulation and tend to encode accidental invariants.
//! * **D4 `unwrap-hot-path`** — warning only: `unwrap()`/`expect()` inside a
//!   function reachable from the reactor poll loop (`Pipeline::poll`, the
//!   node pump, the engine loops), per the call-graph index in
//!   [`crate::index`]; prefer explicit handling. A panic there takes down a
//!   whole multi-tenant run.
//! * **D5 `panic-in-lib`** — warning only: `panic!`/`unreachable!`/`todo!`
//!   in non-test library code of simulation crates. A panic on a
//!   tenant-reachable path takes down a whole multi-tenant run; return a
//!   typed error instead. Genuine internal invariants may be waived with a
//!   reason.
//! * **D6 `telemetry-alloc`** — warning only, telemetry crate: record paths
//!   must be stamped with virtual time (`fn record` signatures take a
//!   `SimTime`) and must not allocate per event (`format!`, `.to_string()`,
//!   `String::from`, `.to_owned()`). String rendering belongs in the
//!   exporters (`export*.rs` files are exempt), which run once after the
//!   simulation, not per recorded event.
//! * **D7 `truncating-cast`** — narrowing `as` casts (`as u8/u16/u32/i8/
//!   i16/i32`) in accounting, credit, and token paths silently drop bits the
//!   moment a counter outgrows the target type, which skews rate math
//!   without a panic. Use `gimbal_sim::cast` helpers or `try_from`.
//! * **D8 `shared-state`** — interior mutability (`RefCell`, `Cell`,
//!   `Mutex`, atomics) and `static mut` are confined to the whitelisted
//!   owner modules. Every other module must own its state exclusively: the
//!   per-SSD shared-nothing split is what makes poll order the *only*
//!   ordering in the system.
//! * **D9 `unchecked-time-arith`** — raw `+`/`-`/`*` feeding a
//!   `SimTime`/`SimDuration` constructor, or compound assignment to an
//!   epoch counter. Overflow panics in debug builds and wraps in release,
//!   so the same seed can behave differently per profile; use
//!   saturating/checked ops.
//!
//! A finding is suppressed by an inline waiver on the same line (or the
//! immediately preceding comment line), carrying an owner, an expiry date,
//! and a reason:
//!
//! `lint: allow(unordered-map, owner=core, expires=2099-01-01) — reason here`
//!
//! A waiver missing any of those, naming an unknown slug, or malformed, is
//! itself an error (**W0**); one whose expiry has passed is an error
//! (**W1**) and stops suppressing.

use crate::lexer::strip_non_code;

/// Identifies one lint rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleId {
    /// D1: std HashMap/HashSet in a simulation crate.
    UnorderedMap,
    /// D2: wall-clock time, ambient entropy, or environment access.
    AmbientTimeEnv,
    /// D3: exact float equality.
    FloatEq,
    /// D4: unwrap/expect reachable from the reactor poll loop (warning).
    UnwrapHotPath,
    /// D5: panic-family macro in non-test library code (warning).
    PanicInLib,
    /// D6: telemetry record path missing `SimTime` or allocating per event
    /// (warning).
    TelemetryAlloc,
    /// D7: narrowing `as` cast in an accounting/credit/token path.
    TruncatingCast,
    /// D8: interior mutability outside the whitelisted owner modules.
    SharedState,
    /// D9: unchecked arithmetic feeding SimTime/epoch counters.
    UncheckedTimeArith,
    /// W0: malformed waiver comment.
    BadWaiver,
    /// W1: expired waiver (no longer suppresses).
    ExpiredWaiver,
}

impl RuleId {
    /// Short code used in reports ("D1".."D9", "W0", "W1").
    pub fn code(self) -> &'static str {
        match self {
            RuleId::UnorderedMap => "D1",
            RuleId::AmbientTimeEnv => "D2",
            RuleId::FloatEq => "D3",
            RuleId::UnwrapHotPath => "D4",
            RuleId::PanicInLib => "D5",
            RuleId::TelemetryAlloc => "D6",
            RuleId::TruncatingCast => "D7",
            RuleId::SharedState => "D8",
            RuleId::UncheckedTimeArith => "D9",
            RuleId::BadWaiver => "W0",
            RuleId::ExpiredWaiver => "W1",
        }
    }

    /// The slug a waiver comment names to suppress this rule.
    pub fn slug(self) -> &'static str {
        match self {
            RuleId::UnorderedMap => "unordered-map",
            RuleId::AmbientTimeEnv => "ambient-time-env",
            RuleId::FloatEq => "float-eq",
            RuleId::UnwrapHotPath => "unwrap-hot-path",
            RuleId::PanicInLib => "panic-in-lib",
            RuleId::TelemetryAlloc => "telemetry-alloc",
            RuleId::TruncatingCast => "truncating-cast",
            RuleId::SharedState => "shared-state",
            RuleId::UncheckedTimeArith => "unchecked-time-arith",
            RuleId::BadWaiver => "bad-waiver",
            RuleId::ExpiredWaiver => "expired-waiver",
        }
    }

    /// One-line explanation attached to each finding.
    pub fn message(self) -> &'static str {
        match self {
            RuleId::UnorderedMap => {
                "std HashMap/HashSet iterate in per-process random order; use DetMap/DetSet or BTreeMap"
            }
            RuleId::AmbientTimeEnv => {
                "ambient wall-clock/entropy/environment access; use SimTime and seeded SimRng"
            }
            RuleId::FloatEq => "exact float equality; compare with a tolerance or restructure",
            RuleId::UnwrapHotPath => {
                "unwrap()/expect() reachable from the reactor poll loop; handle explicitly"
            }
            RuleId::PanicInLib => {
                "panic!/unreachable!/todo! in library code; return a typed error or waive the invariant"
            }
            RuleId::TelemetryAlloc => {
                "telemetry record path must take SimTime and not allocate per event; render strings in exporters"
            }
            RuleId::TruncatingCast => {
                "narrowing `as` cast in an accounting path silently drops bits; use gimbal_sim::cast or try_from"
            }
            RuleId::SharedState => {
                "interior mutability outside a whitelisted owner module breaks shared-nothing ownership"
            }
            RuleId::UncheckedTimeArith => {
                "unchecked arithmetic on SimTime/epoch values differs between debug and release; use saturating/checked ops"
            }
            RuleId::BadWaiver => {
                "malformed waiver: needs a known slug plus owner=, expires=YYYY-MM-DD, and a reason"
            }
            RuleId::ExpiredWaiver => "waiver expired; renew the expiry or fix the finding",
        }
    }
}

/// Error findings fail the build (via `tests/lint_clean.rs`); warnings are
/// reported but do not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    Warning,
    Error,
}

/// One rule violation at a specific source line.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: RuleId,
    pub severity: Severity,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// Which rules apply to a crate.
#[derive(Clone, Copy, Debug)]
pub struct RuleSet {
    pub unordered_map: bool,
    pub ambient_time_env: bool,
    pub float_eq: bool,
    /// D4 applies in strict crates, filtered to poll-loop-reachable lines
    /// by the call-graph index; reports warnings.
    pub unwrap_warn: bool,
    /// D5 applies to every simulation crate and reports warnings.
    pub panic_warn: bool,
    /// D6 is only enabled for the telemetry crate and reports warnings;
    /// exporter files (`export*.rs`) are exempt.
    pub telemetry_alloc: bool,
    /// D7 applies in strict crates, scoped to accounting-path files.
    pub truncating_cast: bool,
    /// D8 applies in strict crates, outside the owner-module whitelist.
    pub shared_state: bool,
    /// D9 applies in strict crates.
    pub time_arith: bool,
}

/// Crates whose state machines feed the event loop directly: every rule at
/// error level.
const STRICT_CRATES: &[&str] = &[
    "sim",
    "ssd",
    "fabric",
    "nic",
    "switch",
    "gimbal",
    "baselines",
    "workload",
    "blobstore",
    "lsm-kv",
    "testbed",
    "telemetry",
    "cache",
    "broker",
    "cores",
];

/// Files that match any of these path fragments hold rate/credit/token
/// accounting state: D7 (truncating casts) applies there.
pub const ACCOUNTING_PATHS: &[&str] = &[
    "token_bucket",
    "credit",
    "rate",
    "write_cost",
    "limiter",
    "scheduler",
    "congestion",
    "accounting",
];

/// The only modules allowed to hold interior-mutability cells (D8). These
/// are the explicit owners of cross-component shared state: the pipeline's
/// core slots, the tracer itself (a run's recorder included), the access
/// journal, the broker ledger, the core scheduler's shared reactor cores,
/// and the IO-state arena (recycled records shared across engine ticks,
/// guarded by incarnation-tagged handles).
pub const SHARED_STATE_OWNERS: &[&str] = &[
    "crates/switch/src/pipeline.rs",
    "crates/telemetry/src/tracer.rs",
    "crates/sim/src/journal.rs",
    "crates/broker/src/ledger.rs",
    "crates/cores/src/sched.rs",
    "crates/sim/src/arena.rs",
];

/// Map a crate directory name (or "root" for the top-level `src/`) to its
/// rule set. CLI-facing crates keep D1/D3 but may read `std::env` and the
/// wall clock (the bench harness times real executions).
pub fn ruleset_for(crate_name: &str) -> RuleSet {
    let strict = STRICT_CRATES.contains(&crate_name);
    RuleSet {
        unordered_map: true,
        ambient_time_env: strict,
        float_eq: true,
        unwrap_warn: strict,
        panic_warn: strict,
        telemetry_alloc: matches!(crate_name, "telemetry" | "cache"),
        truncating_cast: strict,
        shared_state: strict,
        time_arith: strict,
    }
}

/// A calendar date as `(year, month, day)`; tuple ordering is date ordering.
pub type Date = (u16, u8, u8);

/// Parse `YYYY-MM-DD`. Returns `None` on any malformation.
pub fn parse_date(s: &str) -> Option<Date> {
    let mut parts = s.split('-');
    let y = parts.next()?;
    let m = parts.next()?;
    let d = parts.next()?;
    if parts.next().is_some() || y.len() != 4 || m.len() != 2 || d.len() != 2 {
        return None;
    }
    let y: u16 = y.parse().ok()?;
    let m: u8 = m.parse().ok()?;
    let d: u8 = d.parse().ok()?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some((y, m, d))
}

/// One waiver comment found in a file, with its audit state.
#[derive(Clone, Debug)]
pub struct WaiverSite {
    /// 1-based line of the waiver comment.
    pub line: usize,
    pub slug: String,
    /// Empty when the `owner=` field is missing.
    pub owner: String,
    /// `None` when the `expires=` field is missing or malformed.
    pub expires: Option<Date>,
    pub has_reason: bool,
    /// Well-formed: known slug, owner, expiry, and reason all present.
    pub valid: bool,
    /// Valid but past its expiry (set against the scan date).
    pub expired: bool,
    /// Suppressed at least one finding during the scan.
    pub used: bool,
}

/// The waiver marker. Assembled from two pieces so the lint's own source
/// never contains the contiguous marker text and cannot trip itself.
const WAIVER_MARK: &str = concat!("lint: ", "allow(");

/// All slugs a waiver may name. (`bad-waiver`/`expired-waiver` are absent
/// on purpose: meta-findings cannot be waived.)
const KNOWN_SLUGS: &[&str] = &[
    "unordered-map",
    "ambient-time-env",
    "float-eq",
    "unwrap-hot-path",
    "panic-in-lib",
    "telemetry-alloc",
    "truncating-cast",
    "shared-state",
    "unchecked-time-arith",
];

/// Parse every waiver on a raw (un-stripped) source line. `today` decides
/// expiry. Doc comments (`///`, `//!`) are skipped: waiver examples in docs
/// are documentation, not live waivers.
fn parse_waivers(raw_line: &str, line_no: usize, today: Date) -> Vec<WaiverSite> {
    let trimmed = raw_line.trim_start();
    if trimmed.starts_with("///") || trimmed.starts_with("//!") {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut rest = raw_line;
    while let Some(pos) = rest.find(WAIVER_MARK) {
        let after = &rest[pos + WAIVER_MARK.len()..];
        match after.find(')') {
            None => {
                out.push(WaiverSite {
                    line: line_no,
                    slug: String::new(),
                    owner: String::new(),
                    expires: None,
                    has_reason: false,
                    valid: false,
                    expired: false,
                    used: false,
                });
                break;
            }
            Some(close) => {
                let inner = &after[..close];
                let mut fields = inner.split(',');
                let slug = fields.next().unwrap_or("").trim().to_string();
                let mut owner = String::new();
                let mut expires = None;
                for field in fields {
                    let field = field.trim();
                    if let Some(v) = field.strip_prefix("owner=") {
                        owner = v.trim().to_string();
                    } else if let Some(v) = field.strip_prefix("expires=") {
                        expires = parse_date(v.trim());
                    }
                }
                let tail = &after[close + 1..];
                // The reason follows an em-dash/hyphen/colon separator.
                let reason = tail.trim_start_matches([' ', '\u{2014}', '-', ':', '\u{2013}']);
                let has_reason = !reason.trim().is_empty();
                let valid = KNOWN_SLUGS.contains(&slug.as_str())
                    && !owner.is_empty()
                    && expires.is_some()
                    && has_reason;
                let expired = valid && expires.is_some_and(|e| e < today);
                out.push(WaiverSite {
                    line: line_no,
                    slug,
                    owner,
                    expires,
                    has_reason,
                    valid,
                    expired,
                    used: false,
                });
                rest = tail;
            }
        }
    }
    out
}

/// Is `word` present in `line` as a standalone identifier?
fn has_ident(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || {
            let b = bytes[at - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let end = at + word.len();
        let after_ok = end >= bytes.len() || {
            let b = bytes[end];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// Is an identifier *starting with* `prefix` present (`Atomic` matches
/// `AtomicU64`)?
fn has_ident_prefix(line: &str, prefix: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(prefix) {
        let at = start + pos;
        let before_ok = at == 0 || {
            let b = bytes[at - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if before_ok {
            return true;
        }
        start = at + prefix.len();
    }
    false
}

/// Does `token` look like a float literal (`1.0`, `.5`, `2.`, `1e-3`,
/// `3f64`)? Used to keep D3 from flagging integer comparisons.
fn is_float_token(token: &str) -> bool {
    let t = token
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .trim_end_matches('_');
    if t.is_empty() {
        return false;
    }
    let had_suffix = t.len() != token.len();
    let mut digits = false;
    let mut dot = false;
    let mut exp = false;
    for (i, c) in t.chars().enumerate() {
        match c {
            '0'..='9' | '_' => digits = true,
            '.' if !dot && !exp => dot = true,
            'e' | 'E' if digits && !exp => exp = true,
            '+' | '-' if i > 0 && matches!(t.as_bytes()[i - 1], b'e' | b'E') => {}
            _ => return false,
        }
    }
    digits && (dot || exp || had_suffix)
}

/// Detect `==` / `!=` where either operand is a float literal.
fn has_float_eq(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let is_eq = bytes[i] == b'=' && bytes[i + 1] == b'=';
        let is_ne = bytes[i] == b'!' && bytes[i + 1] == b'=';
        if (is_eq || is_ne)
            // Not `<=`, `>=`, `===`-ish runs, or pattern `=>`.
            && (i == 0 || !matches!(bytes[i - 1], b'<' | b'>' | b'=' | b'!'))
            && (i + 2 >= bytes.len() || bytes[i + 2] != b'=')
        {
            let left: String = line[..i]
                .chars()
                .rev()
                .skip_while(|c| c.is_whitespace())
                .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '+' | '-'))
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            let right: String = line[i + 2..]
                .chars()
                .skip_while(|c| c.is_whitespace())
                .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '+' | '-'))
                .collect();
            if is_float_token(left.trim_start_matches(['+', '-']))
                || is_float_token(right.trim_start_matches(['+', '-']))
            {
                return true;
            }
        }
        i += 1;
    }
    false
}

/// Is `name` invoked as a macro (`name!`) on this line? `!=` after the
/// identifier is a comparison, not a macro bang.
fn has_macro(line: &str, name: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(name) {
        let at = start + pos;
        let before_ok = at == 0 || {
            let b = bytes[at - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let end = at + name.len();
        if before_ok
            && end < bytes.len()
            && bytes[end] == b'!'
            && (end + 1 >= bytes.len() || bytes[end + 1] != b'=')
        {
            return true;
        }
        start = at + name.len();
    }
    false
}

/// Narrowing cast targets for D7.
const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Detect `as u8/u16/u32/i8/i16/i32` on a stripped line.
fn has_narrowing_cast(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find("as ") {
        let at = start + pos;
        let before_ok =
            at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        if before_ok {
            let after = line[at + 3..].trim_start();
            let ty: String = after
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if NARROW_TYPES.contains(&ty.as_str()) {
                return true;
            }
        }
        start = at + 3;
    }
    false
}

/// Detect interior-mutability / shared-state tokens for D8.
fn has_shared_state(line: &str) -> bool {
    has_ident(line, "RefCell")
        || has_ident(line, "Cell")
        || has_ident(line, "UnsafeCell")
        || has_ident(line, "Mutex")
        || has_ident(line, "RwLock")
        || has_ident_prefix(line, "Atomic")
        || line.contains("static mut")
}

/// `SimTime`/`SimDuration` constructor call heads for D9.
const TIME_CTORS: &[&str] = &[
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

/// The argument list up to the matching close paren (or end of line).
fn balanced_arg(after_open: &str) -> &str {
    let mut depth = 1i32;
    for (i, c) in after_open.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return &after_open[..i];
                }
            }
            _ => {}
        }
    }
    after_open
}

/// Detect unchecked arithmetic feeding a time constructor, or a compound
/// assignment to an epoch counter (D9). Lines that already use
/// saturating/checked/wrapping ops are exempt.
fn has_unchecked_time_arith(line: &str) -> bool {
    if line.contains("saturating_") || line.contains("checked_") || line.contains("wrapping_") {
        return false;
    }
    for pat in TIME_CTORS {
        let bytes = line.as_bytes();
        let mut start = 0;
        while let Some(pos) = line[start..].find(pat) {
            let at = start + pos;
            let before_ok =
                at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
            if before_ok {
                let arg = balanced_arg(&line[at + pat.len()..]);
                if arg.contains(" + ") || arg.contains(" * ") || arg.contains(" - ") {
                    return true;
                }
            }
            start = at + pat.len();
        }
    }
    // Epoch counters must not use bare compound assignment.
    if line.contains("+=") || line.contains("-=") {
        let mut i = 0;
        let bytes = line.as_bytes();
        while i < bytes.len() {
            if (bytes[i].is_ascii_alphabetic() || bytes[i] == b'_')
                && (i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_'))
            {
                let mut end = i;
                while end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                if line[i..end].contains("epoch") {
                    return true;
                }
                i = end;
            } else {
                i += 1;
            }
        }
    }
    false
}

/// Per-file scan context: rule set, hot-line ranges from the call-graph
/// index (None ⇒ treat every line as hot), and the date waivers expire
/// against.
#[derive(Clone, Copy, Debug)]
pub struct FileCtx<'a> {
    pub rules: RuleSet,
    /// 1-based inclusive line ranges of poll-loop-reachable functions.
    pub hot_ranges: Option<&'a [(usize, usize)]>,
    pub today: Date,
}

/// Record a hit: suppress via the first matching active waiver (marking it
/// used), else push a finding.
#[allow(clippy::too_many_arguments)]
fn apply_rule(
    rule: RuleId,
    severity: Severity,
    rel_path: &str,
    line_no: usize,
    raw_line: &str,
    active: &[usize],
    sites: &mut [WaiverSite],
    findings: &mut Vec<Finding>,
) {
    if let Some(&si) = active.iter().find(|&&si| sites[si].slug == rule.slug()) {
        sites[si].used = true;
        return;
    }
    findings.push(Finding {
        file: rel_path.to_string(),
        line: line_no,
        rule,
        severity,
        snippet: raw_line.trim().to_string(),
    });
}

/// Check one file against `ctx`. Returns the findings and every waiver site
/// encountered (with validity/expiry/used state for the audit mode).
pub fn check_file_ctx(
    rel_path: &str,
    source: &str,
    ctx: &FileCtx<'_>,
) -> (Vec<Finding>, Vec<WaiverSite>) {
    let rules = ctx.rules;
    let stripped = strip_non_code(source);
    // D6 needs signature lookahead (rustfmt wraps long `fn record` headers),
    // so keep an indexable copy of the stripped lines.
    let code_lines: Vec<&str> = stripped.lines().collect();
    let mut findings = Vec::new();
    let mut sites: Vec<WaiverSite> = Vec::new();

    // `#[cfg(test)]` blocks are exempt from every rule: test assertions may
    // hash-collect, compare floats exactly, and unwrap freely.
    let mut in_test = false;
    let mut test_depth: i32 = 0;
    let mut test_seen_brace = false;

    // Waivers on a comment-only line carry forward to the next code line,
    // so rustfmt can rewrap a long statement without detaching its waiver.
    let mut pending: Vec<usize> = Vec::new();

    let in_hot = |line_no: usize| -> bool {
        match ctx.hot_ranges {
            None => true,
            Some(ranges) => ranges.iter().any(|&(s, e)| line_no >= s && line_no <= e),
        }
    };

    for (idx, (code_line, raw_line)) in code_lines.iter().copied().zip(source.lines()).enumerate() {
        let line_no = idx + 1;

        if !in_test && code_line.contains("#[cfg(test)]") {
            in_test = true;
            test_depth = 0;
            test_seen_brace = false;
        }
        if in_test {
            for b in code_line.bytes() {
                match b {
                    b'{' => {
                        test_depth += 1;
                        test_seen_brace = true;
                    }
                    b'}' => test_depth -= 1,
                    _ => {}
                }
            }
            if test_seen_brace && test_depth <= 0 {
                in_test = false;
            }
            continue;
        }

        let new_sites = parse_waivers(raw_line, line_no, ctx.today);
        let first_new = sites.len();
        for w in new_sites {
            if !w.valid {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: RuleId::BadWaiver,
                    severity: Severity::Error,
                    snippet: raw_line.trim().to_string(),
                });
            } else if w.expired {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: RuleId::ExpiredWaiver,
                    severity: Severity::Error,
                    snippet: raw_line.trim().to_string(),
                });
            }
            sites.push(w);
        }
        // Only well-formed, unexpired waivers can suppress.
        let mut line_waivers: Vec<usize> = (first_new..sites.len())
            .filter(|&si| sites[si].valid && !sites[si].expired)
            .collect();

        if raw_line.trim_start().starts_with("//") {
            // Comment-only line: park its waivers for the next code line.
            pending.append(&mut line_waivers);
            continue;
        }
        if !code_line.trim().is_empty() {
            line_waivers.append(&mut pending);
        }
        let active = line_waivers;

        macro_rules! hit {
            ($rule:expr, $sev:expr) => {
                apply_rule(
                    $rule,
                    $sev,
                    rel_path,
                    line_no,
                    raw_line,
                    &active,
                    &mut sites,
                    &mut findings,
                )
            };
        }

        if rules.unordered_map
            && (has_ident(code_line, "HashMap") || has_ident(code_line, "HashSet"))
        {
            hit!(RuleId::UnorderedMap, Severity::Error);
        }
        if rules.ambient_time_env
            && (has_ident(code_line, "Instant")
                || has_ident(code_line, "SystemTime")
                || has_ident(code_line, "thread_rng")
                || code_line.contains("std::env"))
        {
            hit!(RuleId::AmbientTimeEnv, Severity::Error);
        }
        if rules.float_eq && has_float_eq(code_line) {
            hit!(RuleId::FloatEq, Severity::Error);
        }
        if rules.unwrap_warn
            && in_hot(line_no)
            && (code_line.contains(".unwrap()") || code_line.contains(".expect("))
        {
            hit!(RuleId::UnwrapHotPath, Severity::Warning);
        }
        if rules.panic_warn
            && (has_macro(code_line, "panic")
                || has_macro(code_line, "unreachable")
                || has_macro(code_line, "todo"))
        {
            hit!(RuleId::PanicInLib, Severity::Warning);
        }
        if rules.telemetry_alloc && !rel_path.contains("export") {
            let allocates = has_macro(code_line, "format")
                || code_line.contains(".to_string()")
                || code_line.contains("String::from(")
                || code_line.contains(".to_owned()");
            // A record fn must be stamped with virtual time. The signature
            // may wrap, so scan forward until the body brace for `SimTime`.
            let record_unstamped = code_line.contains("fn record") && {
                let mut stamped = false;
                for l in code_lines[idx..].iter().take(6) {
                    if l.contains("SimTime") {
                        stamped = true;
                        break;
                    }
                    if l.contains('{') {
                        break;
                    }
                }
                !stamped
            };
            if allocates || record_unstamped {
                hit!(RuleId::TelemetryAlloc, Severity::Warning);
            }
        }
        // Match accounting fragments against the file name only — matching
        // the full path would hit "rate" inside "crates/".
        let file_name = rel_path.rsplit('/').next().unwrap_or(rel_path);
        if rules.truncating_cast
            && ACCOUNTING_PATHS.iter().any(|p| file_name.contains(p))
            && has_narrowing_cast(code_line)
        {
            hit!(RuleId::TruncatingCast, Severity::Error);
        }
        if rules.shared_state
            && !SHARED_STATE_OWNERS.contains(&rel_path)
            && has_shared_state(code_line)
        {
            hit!(RuleId::SharedState, Severity::Error);
        }
        if rules.time_arith && has_unchecked_time_arith(code_line) {
            hit!(RuleId::UncheckedTimeArith, Severity::Error);
        }
    }

    (findings, sites)
}

/// Back-compatible single-file check: every line is hot, nothing is
/// expired. Returns findings plus the count of waivers that suppressed
/// something.
pub fn check_file(rel_path: &str, source: &str, rules: RuleSet) -> (Vec<Finding>, usize) {
    let ctx = FileCtx {
        rules,
        hot_ranges: None,
        today: (1970, 1, 1),
    };
    let (findings, sites) = check_file_ctx(rel_path, source, &ctx);
    let used = sites.iter().filter(|s| s.used).count();
    (findings, used)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TODAY: Date = (2026, 8, 8);

    fn strict() -> RuleSet {
        ruleset_for("sim")
    }

    fn check(rel: &str, src: &str, rules: RuleSet) -> (Vec<Finding>, Vec<WaiverSite>) {
        let ctx = FileCtx {
            rules,
            hot_ranges: None,
            today: TODAY,
        };
        check_file_ctx(rel, src, &ctx)
    }

    #[test]
    fn flags_hashmap_but_not_in_comment_or_string() {
        let src = "use std::collections::HashMap;\n// HashMap in a comment\nlet s = \"HashMap\";\n";
        let (f, _) = check("x.rs", src, strict());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[0].rule, RuleId::UnorderedMap);
    }

    #[test]
    fn full_waiver_suppresses() {
        let src = "use std::collections::HashMap; // lint: allow(unordered-map, owner=core, expires=2099-01-01) — index only\n";
        let (f, sites) = check("x.rs", src, strict());
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(sites.len(), 1);
        assert!(sites[0].used);
        assert_eq!(sites[0].owner, "core");
        assert_eq!(sites[0].expires, Some((2099, 1, 1)));
    }

    #[test]
    fn waiver_on_preceding_comment_line_suppresses() {
        // rustfmt may push a trailing waiver onto its own line above the
        // statement; the waiver must still bind to the next code line.
        let src = "\
// lint: allow(unordered-map, owner=core, expires=2099-01-01) — index only, never iterated
use std::collections::HashMap;
";
        let (f, sites) = check("x.rs", src, strict());
        assert!(f.is_empty(), "{f:?}");
        assert!(sites[0].used);
    }

    #[test]
    fn carried_waiver_skips_blank_lines_but_binds_once() {
        let src = "\
// lint: allow(float-eq, owner=core, expires=2099-01-01) — exact-zero guard

let a = x == 0.0;
let b = y == 0.0;
";
        let (f, sites) = check("x.rs", src, strict());
        assert!(sites[0].used);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4, "second float-eq must still be flagged");
    }

    #[test]
    fn waiver_without_owner_or_expiry_or_reason_is_an_error() {
        for bad in [
            "use std::collections::HashMap; // lint: allow(unordered-map) — reason\n",
            "use std::collections::HashMap; // lint: allow(unordered-map, owner=core) — reason\n",
            "use std::collections::HashMap; // lint: allow(unordered-map, expires=2099-01-01) — reason\n",
            "use std::collections::HashMap; // lint: allow(unordered-map, owner=core, expires=2099-01-01)\n",
            "use std::collections::HashMap; // lint: allow(unordered-map, owner=core, expires=2099-13-01) — bad month\n",
        ] {
            let (f, _) = check("x.rs", bad, strict());
            assert!(
                f.iter().any(|x| x.rule == RuleId::BadWaiver),
                "expected W0 for {bad:?}"
            );
            assert!(
                f.iter().any(|x| x.rule == RuleId::UnorderedMap),
                "incomplete waiver must not suppress: {bad:?}"
            );
        }
    }

    #[test]
    fn expired_waiver_is_an_error_and_stops_suppressing() {
        let src = "use std::collections::HashMap; // lint: allow(unordered-map, owner=core, expires=2020-01-01) — stale\n";
        let (f, sites) = check("x.rs", src, strict());
        assert!(f.iter().any(|x| x.rule == RuleId::ExpiredWaiver), "{f:?}");
        assert!(f.iter().any(|x| x.rule == RuleId::UnorderedMap), "{f:?}");
        assert!(sites[0].expired);
        assert!(!sites[0].used);
    }

    #[test]
    fn unknown_slug_is_an_error() {
        let src =
            "let x = 1; // lint: allow(no-such-rule, owner=core, expires=2099-01-01) — because\n";
        let (f, _) = check("x.rs", src, strict());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::BadWaiver);
    }

    #[test]
    fn doc_comment_waiver_examples_are_ignored() {
        let src = "\
//! `lint: allow(unordered-map, owner=core, expires=2099-01-01) — example`
/// `lint: allow(float-eq)` — malformed on purpose, still ignored
let x = 1;
";
        let (f, sites) = check("x.rs", src, strict());
        assert!(f.is_empty(), "{f:?}");
        assert!(sites.is_empty(), "{sites:?}");
    }

    #[test]
    fn date_parsing() {
        assert_eq!(parse_date("2026-08-08"), Some((2026, 8, 8)));
        assert_eq!(parse_date("2026-8-8"), None);
        assert_eq!(parse_date("2026-13-01"), None);
        assert_eq!(parse_date("2026-00-10"), None);
        assert_eq!(parse_date("not-a-date"), None);
        assert_eq!(parse_date("2026-01-01-x"), None);
        assert!(parse_date("2025-12-31") < parse_date("2026-01-01"));
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    #[test]
    fn t() { let _ = 1.0 == 1.0; }
}
fn also_live() { let m = std::collections::HashMap::new(); }
";
        let (f, _) = check("x.rs", src, strict());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 8);
    }

    #[test]
    fn ambient_time_and_env() {
        let src = "let t = std::time::Instant::now();\nlet e = std::env::var(\"X\");\nlet d = std::time::Duration::from_secs(1);\n";
        let (f, _) = check("x.rs", src, strict());
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == RuleId::AmbientTimeEnv));
    }

    #[test]
    fn float_eq_detection() {
        assert!(has_float_eq("if x == 0.0 {"));
        assert!(has_float_eq("if 1.5 != y {"));
        assert!(has_float_eq("x == 1e-9"));
        assert!(has_float_eq("x == 3f64"));
        assert!(!has_float_eq("tenant.0 == 0"));
        assert!(!has_float_eq("a == b"));
        assert!(!has_float_eq("n <= 0"));
        assert!(!has_float_eq("match x { _ => 1.0 }"));
        assert!(!has_float_eq("idx == other.0"));
    }

    #[test]
    fn unwrap_respects_hot_ranges() {
        let src = "\
fn hot() {
    let v = q.pop().unwrap();
}
fn cold() {
    let v = q.pop().unwrap();
}
";
        // Only lines 1..=3 are hot.
        let ranges = [(1usize, 3usize)];
        let ctx = FileCtx {
            rules: strict(),
            hot_ranges: Some(&ranges),
            today: TODAY,
        };
        let (f, _) = check_file_ctx("x.rs", src, &ctx);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
        assert_eq!(f[0].rule, RuleId::UnwrapHotPath);
        assert_eq!(f[0].severity, Severity::Warning);
        // With no index (None), everything is hot.
        let (f, _) = check("x.rs", src, strict());
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn panic_family_is_flagged_as_warning() {
        let src = "panic!(\"boom\");\nunreachable!();\ntodo!()\n";
        let (f, _) = check("x.rs", src, strict());
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f
            .iter()
            .all(|x| x.rule == RuleId::PanicInLib && x.severity == Severity::Warning));
    }

    #[test]
    fn panic_detection_needs_the_macro_bang() {
        assert!(has_macro("panic!(\"x\")", "panic"));
        assert!(has_macro("core::panic!(\"x\")", "panic"));
        assert!(!has_macro("should_panic(expected = \"x\")", "panic"));
        assert!(!has_macro("let panic_count = 3;", "panic"));
        assert!(!has_macro("if todo != 3 {", "todo"));
        assert!(!has_macro("todo!=3", "todo"));
    }

    #[test]
    fn waived_panic_is_suppressed() {
        let src =
            "panic!(\"invariant\"); // lint: allow(panic-in-lib, owner=core, expires=2099-01-01) — internal invariant, unreachable from tenants\n";
        let (f, sites) = check("x.rs", src, strict());
        assert!(f.is_empty(), "{f:?}");
        assert!(sites[0].used);
    }

    #[test]
    fn d6_flags_allocation_and_unstamped_record_outside_exporters() {
        let rules = ruleset_for("telemetry");
        assert!(rules.telemetry_alloc);
        let src = "\
fn record(&mut self, kind: u32) {
    let s = format!(\"{kind}\");
}
";
        let (f, _) = check("crates/telemetry/src/tracer.rs", src, rules);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f
            .iter()
            .all(|x| x.rule == RuleId::TelemetryAlloc && x.severity == Severity::Warning));
    }

    #[test]
    fn d6_accepts_wrapped_simtime_signature_and_exempts_exporters() {
        let rules = ruleset_for("telemetry");
        let ok = "\
fn record(
    &mut self,
    at: SimTime,
) {
}
";
        let (f, _) = check("crates/telemetry/src/tracer.rs", ok, rules);
        assert!(f.is_empty(), "{f:?}");
        // Exporters render strings by design; `export*.rs` is exempt.
        let exporter = "fn render(x: u32) -> String { x.to_string() }\n";
        let (f, _) = check("crates/telemetry/src/export.rs", exporter, rules);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d7_narrowing_cast_in_accounting_paths_only() {
        let src = "let slots = total as u32;\nlet wide = total as u64;\n";
        let (f, _) = check("crates/gimbal/src/scheduler.rs", src, ruleset_for("gimbal"));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::TruncatingCast);
        assert_eq!(f[0].severity, Severity::Error);
        assert_eq!(f[0].line, 1);
        // Same code outside an accounting path: no D7.
        let (f, _) = check("crates/gimbal/src/policy.rs", src, ruleset_for("gimbal"));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d7_cast_detection() {
        assert!(has_narrowing_cast("x as u8"));
        assert!(has_narrowing_cast("(a + b) as i16;"));
        assert!(has_narrowing_cast("y as u32"));
        assert!(!has_narrowing_cast("x as u64"));
        assert!(!has_narrowing_cast("x as usize"));
        assert!(!has_narrowing_cast("x as f64"));
        assert!(!has_narrowing_cast("alias as u320ther"));
        assert!(!has_narrowing_cast("atlas u8"));
    }

    #[test]
    fn d8_shared_state_outside_owner_modules() {
        let src = "use std::cell::RefCell;\n";
        let (f, _) = check("crates/gimbal/src/scheduler.rs", src, ruleset_for("gimbal"));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::SharedState);
        // Owner modules may hold cells.
        let (f, _) = check(
            "crates/telemetry/src/tracer.rs",
            src,
            ruleset_for("telemetry"),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d8_token_detection() {
        assert!(has_shared_state("let x: Cell<u32> = Cell::new(0);"));
        assert!(has_shared_state("static mut COUNTER: u32 = 0;"));
        assert!(has_shared_state("use std::sync::atomic::AtomicU64;"));
        assert!(has_shared_state("Mutex::new(())"));
        assert!(!has_shared_state("let cell_count = 3;"));
        // Helpers run on stripped lines, so comments never reach them; a
        // lowercase ident must still not trip the Atomic prefix check.
        assert!(!has_shared_state("let atomic_feel = 1;"));
    }

    #[test]
    fn d9_flags_raw_arith_in_time_ctors() {
        let bad = "let t = SimTime::from_micros(base + i * 100);\n";
        let (f, _) = check("crates/gimbal/src/policy.rs", bad, ruleset_for("gimbal"));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::UncheckedTimeArith);
        let ok = "let t = SimTime::from_micros(base.saturating_add(off));\n";
        let (f, _) = check("crates/gimbal/src/policy.rs", ok, ruleset_for("gimbal"));
        assert!(f.is_empty(), "{f:?}");
        // Arithmetic outside the constructor parens is the saturating
        // operator impls' job, not D9's.
        let outside = "let t = issued + SimDuration::from_micros(us);\n";
        let (f, _) = check(
            "crates/gimbal/src/policy.rs",
            outside,
            ruleset_for("gimbal"),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d9_flags_bare_epoch_compound_assign() {
        let bad = "line.dirty_epoch += 1;\n";
        let (f, _) = check("crates/cache/src/lib.rs", bad, ruleset_for("cache"));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::UncheckedTimeArith);
        let ok = "line.dirty_epoch = line.dirty_epoch.saturating_add(1);\n";
        let (f, _) = check("crates/cache/src/lib.rs", ok, ruleset_for("cache"));
        assert!(f.is_empty(), "{f:?}");
        let unrelated = "count += 1;\n";
        let (f, _) = check("crates/cache/src/lib.rs", unrelated, ruleset_for("cache"));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn rulesets_by_crate() {
        assert!(ruleset_for("gimbal").ambient_time_env);
        assert!(ruleset_for("gimbal").unwrap_warn);
        assert!(ruleset_for("ssd").ambient_time_env);
        // D4 now applies to every strict crate; the call-graph index scopes
        // it to poll-loop-reachable lines.
        assert!(ruleset_for("ssd").unwrap_warn);
        assert!(ruleset_for("ssd").panic_warn);
        assert!(ruleset_for("ssd").truncating_cast);
        assert!(ruleset_for("ssd").shared_state);
        assert!(ruleset_for("ssd").time_arith);
        // CLI/bench crates may read env and the wall clock…
        assert!(!ruleset_for("bench").ambient_time_env);
        assert!(!ruleset_for("root").ambient_time_env);
        assert!(!ruleset_for("bench").panic_warn);
        assert!(!ruleset_for("bench").shared_state);
        assert!(!ruleset_for("bench").time_arith);
        // …but still may not use unordered maps.
        assert!(ruleset_for("bench").unordered_map);
        // D6 is scoped to the record-site crates: telemetry and cache.
        assert!(ruleset_for("telemetry").telemetry_alloc);
        assert!(ruleset_for("telemetry").ambient_time_env);
        assert!(ruleset_for("cache").telemetry_alloc);
        assert!(ruleset_for("cache").ambient_time_env);
        assert!(!ruleset_for("gimbal").telemetry_alloc);
    }
}
