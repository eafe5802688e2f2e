//! A lightweight workspace symbol and call-graph index.
//!
//! Built entirely from lexer-stripped source (no rustc, no syn): for every
//! `.rs` file we record the functions it defines (bare name, `Type::name`
//! qualification from the enclosing `impl` block, and the 1-based line span
//! of the body) and the bare names of everything each body calls. Calls are
//! resolved *by name*: a callee name maps to every workspace function with
//! that name. That is a deliberate over-approximation — the index exists to
//! answer "could this line run under the reactor poll loop?", and for a lint
//! a conservative yes beats a brittle no.
//!
//! The one consumer today is rule D4 (`unwrap-hot-path`): a finding fires
//! only inside a function reachable from one of the [`RootSpec`] reactor
//! roots (`Pipeline::poll`, the node runtime's pump and the engine loops),
//! replacing the old crate-name heuristic.

use std::collections::BTreeMap;

/// One function definition discovered in the workspace.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Crate directory name ("root" for the top-level package).
    pub crate_name: String,
    /// Path relative to the workspace root.
    pub file: String,
    /// Bare function name.
    pub name: String,
    /// `Type::name` when defined inside an `impl` block, else the bare name.
    pub qualified: String,
    /// 1-based line of the `fn` keyword.
    pub start_line: usize,
    /// 1-based last line of the body (== `start_line` for bodyless decls).
    pub end_line: usize,
    /// Defined under `#[cfg(test)]`; excluded from reachability.
    pub in_test: bool,
    /// Bare names of callees observed in the body (sorted, deduped).
    pub calls: Vec<String>,
}

/// A reachability root, e.g. the reactor poll loop.
#[derive(Clone, Copy, Debug)]
pub struct RootSpec {
    /// Crate the root lives in.
    pub crate_name: &'static str,
    /// Qualified name (`Type::name`) of the root function.
    pub qualified: &'static str,
}

/// The reactor roots for hot-path reachability: every event in a run is
/// dispatched by the one engine loop the fio, KV and rack engines share,
/// every target-side quantum by the node runtime's pump, and every
/// device-side state transition by `Pipeline::poll`.
pub const REACTOR_ROOTS: &[RootSpec] = &[
    RootSpec {
        crate_name: "switch",
        qualified: "Pipeline::poll",
    },
    RootSpec {
        crate_name: "testbed",
        qualified: "Node::pump",
    },
    RootSpec {
        crate_name: "testbed",
        qualified: "Reactor::run",
    },
];

/// Keywords and ubiquitous constructors that look like `name(` call sites
/// but are not workspace function calls.
const NON_CALLEES: &[&str] = &[
    "if",
    "while",
    "for",
    "match",
    "return",
    "loop",
    "in",
    "as",
    "move",
    "else",
    "let",
    "mut",
    "ref",
    "await",
    "unsafe",
    "dyn",
    "impl",
    "where",
    "pub",
    "use",
    "mod",
    "struct",
    "enum",
    "trait",
    "type",
    "const",
    "static",
    "crate",
    "self",
    "Self",
    "super",
    "fn",
    "true",
    "false",
    "Some",
    "None",
    "Ok",
    "Err",
    "Box",
    "Vec",
    "String",
    "assert",
    "debug_assert",
];

/// The whole-workspace index.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceIndex {
    /// Every function definition, in file-scan order.
    pub fns: Vec<FnDef>,
    by_name: BTreeMap<String, Vec<usize>>,
}

/// Is byte `b` part of an identifier?
fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Extract the identifier starting at byte offset `at` (must be its start).
fn ident_at(s: &str, at: usize) -> &str {
    let bytes = s.as_bytes();
    let mut end = at;
    while end < bytes.len() && is_ident_byte(bytes[end]) {
        end += 1;
    }
    &s[at..end]
}

/// Parse the self-type out of an `impl` header (text after the `impl`
/// keyword): skip the generic parameter list, prefer the type after ` for `,
/// and keep the last path segment (`fmt::Debug for SimTime` → `SimTime`).
fn impl_self_type(after_impl: &str) -> Option<String> {
    let mut rest = after_impl.trim_start();
    if let Some(stripped) = rest.strip_prefix('<') {
        let mut depth = 1usize;
        let mut idx = None;
        for (i, c) in stripped.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        idx = Some(i + 1);
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = stripped.get(idx?..)?.trim_start();
    }
    // `impl Trait for Type` — the self type follows the last ` for `.
    if let Some(pos) = rest.rfind(" for ") {
        rest = rest[pos + 5..].trim_start();
    }
    rest = rest.trim_start_matches('&').trim_start();
    for prefix in ["'static ", "mut "] {
        rest = rest.strip_prefix(prefix).unwrap_or(rest).trim_start();
    }
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(rest.len());
    let path = &rest[..end];
    let name = path.rsplit("::").next().unwrap_or(path);
    if name.is_empty() {
        None
    } else {
        Some(name.to_string())
    }
}

impl WorkspaceIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Index one file. `stripped` must be lexer-stripped source so strings
    /// and comments cannot fake definitions or calls.
    pub fn add_file(&mut self, crate_name: &str, rel_path: &str, stripped: &str) {
        let lines: Vec<&str> = stripped.lines().collect();

        // Depth tracking for impl-block attribution and cfg(test) scopes.
        let mut depth: i32 = 0;
        // (self type, depth the impl body opened at)
        let mut impl_stack: Vec<(String, i32)> = Vec::new();
        let mut pending_impl: Option<String> = None;
        // (depth the test scope opened at). cfg(test) attaches to the next
        // brace-opened item.
        let mut test_stack: Vec<i32> = Vec::new();
        let mut pending_test = false;

        // Functions whose body is still open: (fn index, closing depth).
        let mut open_fns: Vec<(usize, i32)> = Vec::new();
        // A fn whose signature has not reached `{` or `;` yet.
        let mut pending_fn: Option<usize> = None;

        for (idx, line) in lines.iter().enumerate() {
            let line_no = idx + 1;

            if line.contains("#[cfg(test)]") {
                pending_test = true;
            }

            // New fn definitions on this line.
            let bytes = line.as_bytes();
            let mut search = 0usize;
            while let Some(pos) = line[search..].find("fn ") {
                let at = search + pos;
                let boundary = at == 0 || !is_ident_byte(bytes[at - 1]);
                let name_start = at + 3;
                if boundary && name_start < bytes.len() && is_ident_byte(bytes[name_start]) {
                    let name = ident_at(line, name_start);
                    if !name.is_empty() && !name.as_bytes()[0].is_ascii_digit() {
                        let qualified = match impl_stack.last() {
                            Some((ty, _)) => format!("{ty}::{name}"),
                            None => name.to_string(),
                        };
                        self.fns.push(FnDef {
                            crate_name: crate_name.to_string(),
                            file: rel_path.to_string(),
                            name: name.to_string(),
                            qualified,
                            start_line: line_no,
                            end_line: line_no,
                            in_test: pending_test || !test_stack.is_empty(),
                            calls: Vec::new(),
                        });
                        // Only the last fn on a line can have a pending
                        // multi-line signature; earlier ones close in-line
                        // via the brace walk below.
                        pending_fn = Some(self.fns.len() - 1);
                    }
                }
                search = at + 3;
            }

            // `impl` headers (the body may open on a later line).
            if let Some(pos) = find_kw(line, "impl") {
                if let Some(ty) = impl_self_type(&line[pos + 4..]) {
                    // Inherent/trait impls only; `impl Trait for` inside a
                    // fn signature (e.g. `-> impl Iterator`) has no body
                    // brace of its own at this depth — the pending slot is
                    // simply overwritten or dropped harmlessly.
                    if pending_fn.is_none() {
                        pending_impl = Some(ty);
                    }
                }
            }

            // Functions whose body overlaps this line (open before it, or
            // opened on it) receive the line's call sites.
            let mut touched: Vec<usize> = open_fns.iter().map(|&(i, _)| i).collect();

            // Walk braces to maintain scopes.
            for b in line.bytes() {
                match b {
                    b'{' => {
                        depth += 1;
                        if let Some(fn_idx) = pending_fn.take() {
                            open_fns.push((fn_idx, depth - 1));
                            touched.push(fn_idx);
                        } else if let Some(ty) = pending_impl.take() {
                            impl_stack.push((ty, depth - 1));
                        } else if pending_test {
                            test_stack.push(depth - 1);
                        }
                        pending_test = false;
                    }
                    b'}' => {
                        depth -= 1;
                        while let Some(&(fn_idx, close)) = open_fns.last() {
                            if depth <= close {
                                self.fns[fn_idx].end_line = line_no;
                                open_fns.pop();
                            } else {
                                break;
                            }
                        }
                        if let Some(&(_, close)) = impl_stack.last() {
                            if depth <= close {
                                impl_stack.pop();
                            }
                        }
                        if let Some(&close) = test_stack.last() {
                            if depth <= close {
                                test_stack.pop();
                            }
                        }
                    }
                    b';' => {
                        // Bodyless decl (trait method signature).
                        if let Some(fn_idx) = pending_fn.take() {
                            self.fns[fn_idx].end_line = line_no;
                        }
                    }
                    _ => {}
                }
            }

            // Record call sites for every fn whose body spans this line.
            if !touched.is_empty() {
                let mut callees = Vec::new();
                collect_callees(line, &mut callees);
                if !callees.is_empty() {
                    for &fn_idx in &touched {
                        self.fns[fn_idx].calls.extend(callees.iter().cloned());
                    }
                }
            }
        }

        // Close any fn left open at EOF (unbalanced braces from macro-heavy
        // files): end at the last line.
        for (fn_idx, _) in open_fns {
            self.fns[fn_idx].end_line = lines.len().max(1);
        }
    }

    /// Build the name-resolution table. Call after the last `add_file`.
    pub fn finish(&mut self) {
        self.by_name.clear();
        for f in self.fns.iter_mut() {
            f.calls.sort();
            f.calls.dedup();
        }
        for (i, f) in self.fns.iter().enumerate() {
            self.by_name.entry(f.name.clone()).or_default().push(i);
        }
    }

    /// Total number of call edges (post-dedup).
    pub fn edge_count(&self) -> usize {
        self.fns.iter().map(|f| f.calls.len()).sum()
    }

    /// Whether `root` names an indexed (non-test) function.
    pub fn resolves(&self, root: &RootSpec) -> bool {
        self.fns
            .iter()
            .any(|f| !f.in_test && f.crate_name == root.crate_name && f.qualified == root.qualified)
    }

    /// Per-function reachability from `roots`, by breadth-first search over
    /// name-resolved call edges. Test functions never propagate.
    pub fn reachable(&self, roots: &[RootSpec]) -> Vec<bool> {
        let mut reach = vec![false; self.fns.len()];
        let mut queue: Vec<usize> = Vec::new();
        for (i, f) in self.fns.iter().enumerate() {
            let is_root = roots
                .iter()
                .any(|r| f.crate_name == r.crate_name && f.qualified == r.qualified);
            if is_root && !f.in_test {
                reach[i] = true;
                queue.push(i);
            }
        }
        while let Some(i) = queue.pop() {
            for callee in &self.fns[i].calls {
                if let Some(targets) = self.by_name.get(callee) {
                    for &t in targets {
                        if !reach[t] && !self.fns[t].in_test {
                            reach[t] = true;
                            queue.push(t);
                        }
                    }
                }
            }
        }
        reach
    }

    /// Line ranges of reachable functions, grouped by file.
    pub fn hot_ranges(&self, reach: &[bool]) -> BTreeMap<String, Vec<(usize, usize)>> {
        let mut out: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        for (i, f) in self.fns.iter().enumerate() {
            if reach[i] {
                out.entry(f.file.clone())
                    .or_default()
                    .push((f.start_line, f.end_line));
            }
        }
        out
    }
}

/// Find keyword `kw` as a standalone identifier; return its byte offset.
fn find_kw(line: &str, kw: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(kw) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + kw.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + kw.len();
    }
    None
}

/// Collect bare callee names on one stripped line: identifiers immediately
/// followed by `(`, excluding macro bangs (`name!(`) and keyword false
/// positives.
fn collect_callees(line: &str, out: &mut Vec<String>) {
    let bytes = line.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if is_ident_byte(bytes[i]) && (i == 0 || !is_ident_byte(bytes[i - 1])) {
            let name = ident_at(line, i);
            let end = i + name.len();
            // A definition's own signature (`fn name(`) is not a call site.
            let is_def = i >= 3 && &line[i - 3..i] == "fn ";
            // Whitespace between name and `(` does not survive rustfmt, so
            // adjacency is the call test.
            if end < bytes.len()
                && bytes[end] == b'('
                && !is_def
                && !name.is_empty()
                && !name.as_bytes()[0].is_ascii_digit()
                && !NON_CALLEES.contains(&name)
            {
                out.push(name.to_string());
            }
            i = end;
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::strip_non_code;

    fn index_of(src: &str) -> WorkspaceIndex {
        let mut ix = WorkspaceIndex::new();
        ix.add_file("demo", "crates/demo/src/lib.rs", &strip_non_code(src));
        ix.finish();
        ix
    }

    #[test]
    fn finds_free_and_impl_fns_with_spans() {
        let src = "\
fn free(x: u32) -> u32 {
    helper(x)
}

struct T;

impl T {
    pub fn method(&self) {
        free(1);
    }
}
";
        let ix = index_of(src);
        let names: Vec<&str> = ix.fns.iter().map(|f| f.qualified.as_str()).collect();
        assert_eq!(names, vec!["free", "T::method"]);
        assert_eq!(ix.fns[0].start_line, 1);
        assert_eq!(ix.fns[0].end_line, 3);
        assert_eq!(ix.fns[0].calls, vec!["helper".to_string()]);
        assert_eq!(ix.fns[1].calls, vec!["free".to_string()]);
    }

    #[test]
    fn trait_impls_qualify_by_self_type() {
        let src = "\
impl fmt::Debug for SimThing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write(f)
    }
}
impl<T: Clone> Wrapper<T> {
    fn get(&self) -> T { inner() }
}
";
        let ix = index_of(src);
        let names: Vec<&str> = ix.fns.iter().map(|f| f.qualified.as_str()).collect();
        assert_eq!(names, vec!["SimThing::fmt", "Wrapper::get"]);
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    fn helper() {}
    #[test]
    fn t() { live(); }
}
";
        let ix = index_of(src);
        assert!(!ix.fns[0].in_test);
        assert!(ix.fns[1].in_test, "{:?}", ix.fns[1]);
        assert!(ix.fns[2].in_test, "{:?}", ix.fns[2]);
    }

    #[test]
    fn reachability_walks_call_edges() {
        let src = "\
struct Pipeline;
impl Pipeline {
    pub fn poll(&mut self) {
        self.step();
    }
    fn step(&mut self) {
        leaf_work();
    }
}
fn leaf_work() {}
fn dead_code() { leaf_work(); }
";
        let mut ix = WorkspaceIndex::new();
        ix.add_file(
            "switch",
            "crates/switch/src/pipeline.rs",
            &strip_non_code(src),
        );
        ix.finish();
        let reach = ix.reachable(REACTOR_ROOTS);
        let by_name: BTreeMap<&str, bool> = ix
            .fns
            .iter()
            .enumerate()
            .map(|(i, f)| (f.qualified.as_str(), reach[i]))
            .collect();
        assert!(by_name["Pipeline::poll"]);
        assert!(by_name["Pipeline::step"]);
        assert!(by_name["leaf_work"]);
        assert!(!by_name["dead_code"], "not called from the poll loop");
    }

    #[test]
    fn name_resolution_crosses_files() {
        let mut ix = WorkspaceIndex::new();
        ix.add_file(
            "switch",
            "crates/switch/src/pipeline.rs",
            &strip_non_code("struct Pipeline;\nimpl Pipeline {\n  pub fn poll(&mut self) { shared_util(); }\n}\n"),
        );
        ix.add_file(
            "sim",
            "crates/sim/src/util.rs",
            &strip_non_code(
                "pub fn shared_util() { deeper(); }\npub fn deeper() {}\npub fn unrelated() {}\n",
            ),
        );
        ix.finish();
        let reach = ix.reachable(REACTOR_ROOTS);
        let flags: Vec<(String, bool)> = ix
            .fns
            .iter()
            .enumerate()
            .map(|(i, f)| (f.qualified.clone(), reach[i]))
            .collect();
        assert!(flags.iter().any(|(q, r)| q == "shared_util" && *r));
        assert!(flags.iter().any(|(q, r)| q == "deeper" && *r));
        assert!(flags.iter().any(|(q, r)| q == "unrelated" && !*r));
    }

    #[test]
    fn hot_ranges_group_by_file() {
        let src = "\
struct Pipeline;
impl Pipeline {
    pub fn poll(&mut self) {
        self.twirl();
    }
    fn twirl(&mut self) {}
}
fn cold() {}
";
        let mut ix = WorkspaceIndex::new();
        ix.add_file(
            "switch",
            "crates/switch/src/pipeline.rs",
            &strip_non_code(src),
        );
        ix.finish();
        let reach = ix.reachable(REACTOR_ROOTS);
        let ranges = ix.hot_ranges(&reach);
        let spans = &ranges["crates/switch/src/pipeline.rs"];
        assert_eq!(spans.len(), 2, "{spans:?}");
        assert!(spans.contains(&(3, 5)));
        assert!(spans.contains(&(6, 6)));
    }

    #[test]
    fn bodyless_trait_decls_do_not_swallow_following_code() {
        let src = "\
trait Sched {
    fn pick(&mut self) -> u32;
}
fn after() { work(); }
";
        let ix = index_of(src);
        let after = ix.fns.iter().find(|f| f.name == "after").expect("indexed");
        assert_eq!(after.start_line, 4);
        assert_eq!(after.calls, vec!["work".to_string()]);
    }
}
