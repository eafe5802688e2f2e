//! Divergence sanitizer: a flag-gated state-access journal.
//!
//! Determinism bugs are easy to assert (`digest_a == digest_b`) and painful
//! to localize: by the time the final digest differs, millions of events have
//! passed and the first bad decision is long gone. The [`AccessJournal`]
//! records a `(tick, component, key, op)` tuple for every state access a
//! component chooses to report, folds each record into a running [`Digest`],
//! and checkpoints the cumulative digest once per tick. Given two journals
//! from a double run, [`first_divergence`] binary-searches the checkpoint
//! sequence to the first tick whose *prefix* digest differs, then replays
//! that tick's entries side by side to name the exact component, key, and
//! operation where the runs parted ways.
//!
//! The journal is reached through a [`JournalHandle`], the same clonable
//! `Option<Rc<RefCell<..>>>` shape as the telemetry `TraceHandle`: the
//! default handle is disabled and every record call reduces to one `None`
//! branch, so runs with the sanitizer off are bit-identical to runs built
//! before it existed.

#![expect(
    clippy::disallowed_types,
    reason = "D8 owner: every component records into one access journal through a JournalHandle"
)]

use std::cell::RefCell;
use std::rc::Rc;

use crate::digest::Digest;

/// One recorded state access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalEntry {
    /// Virtual-time tick (nanoseconds) of the poll step that made the access.
    pub tick: u64,
    /// The component that owns the state (e.g. `"switch.pipeline"`).
    pub component: &'static str,
    /// The operation performed (e.g. `"pop"`, `"credit"`, `"evict"`).
    pub op: &'static str,
    /// The key touched — tenant id, slot index, LPN, whatever identifies the
    /// state within the component.
    pub key: u64,
}

impl JournalEntry {
    fn fold_into(&self, d: &mut Digest) {
        d.update_u64(self.tick);
        d.update(self.component.as_bytes());
        d.update(&[0]); // separator: ("ab","c") must differ from ("a","bc")
        d.update(self.op.as_bytes());
        d.update(&[0]);
        d.update_u64(self.key);
    }
}

/// Cumulative digest checkpoint at the end of one tick.
#[derive(Clone, Copy, Debug)]
struct Checkpoint {
    tick: u64,
    /// Digest over every entry with `entry.tick <= tick`.
    cumulative: u64,
}

/// The state-access journal for one simulation run.
#[derive(Clone, Debug, Default)]
pub struct AccessJournal {
    entries: Vec<JournalEntry>,
    checkpoints: Vec<Checkpoint>,
    running: Digest,
}

impl AccessJournal {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record one access. `tick` values must be non-decreasing — the journal
    /// is fed from a monotone poll loop.
    pub(crate) fn record(
        &mut self,
        tick: u64,
        component: &'static str,
        op: &'static str,
        key: u64,
    ) {
        debug_assert!(
            self.entries.last().is_none_or(|e| e.tick <= tick),
            "journal ticks must be non-decreasing"
        );
        // Close the previous tick's checkpoint when time advances.
        if let Some(last) = self.entries.last() {
            if last.tick < tick {
                self.push_checkpoint(last.tick);
            }
        }
        let entry = JournalEntry {
            tick,
            component,
            op,
            key,
        };
        entry.fold_into(&mut self.running);
        self.entries.push(entry);
    }

    fn push_checkpoint(&mut self, tick: u64) {
        self.checkpoints.push(Checkpoint {
            tick,
            cumulative: self.running.value(),
        });
    }

    /// Every entry recorded so far, in record order (test suites assert on
    /// which components decided what; the comparator itself uses
    /// [`first_divergence`]).
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Total entries recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Digest over every entry recorded so far (includes the still-open
    /// tick). Two deterministic runs must agree on this value.
    pub fn digest(&self) -> u64 {
        self.running.value()
    }

    /// Cumulative digest over all entries with `entry.tick <= tick`.
    fn prefix_digest(&self, tick: u64) -> u64 {
        // Last closed checkpoint at or before `tick`…
        let idx = self.checkpoints.partition_point(|c| c.tick <= tick);
        let closed = if idx == 0 {
            Digest::new().value()
        } else {
            self.checkpoints[idx - 1].cumulative
        };
        // …plus the still-open tail if it falls inside the prefix.
        match self.entries.last() {
            Some(last) if last.tick <= tick && self.checkpoints.len() == idx => {
                self.running.value()
            }
            _ => closed,
        }
    }

    /// All entries recorded at exactly `tick`.
    fn entries_at(&self, tick: u64) -> &[JournalEntry] {
        let lo = self.entries.partition_point(|e| e.tick < tick);
        let hi = self.entries.partition_point(|e| e.tick <= tick);
        &self.entries[lo..hi]
    }

    /// Every distinct tick that recorded at least one entry, ascending.
    fn ticks(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.checkpoints.iter().map(|c| c.tick).collect();
        if let Some(last) = self.entries.last() {
            if out.last() != Some(&last.tick) {
                out.push(last.tick);
            }
        }
        out
    }
}

/// Where and how two journals first disagree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DivergenceReport {
    /// First tick whose prefix digests differ.
    pub tick: u64,
    /// Index within that tick's entry list of the first mismatch.
    pub entry_index: usize,
    /// The entry run A recorded at that position, if any.
    pub a: Option<JournalEntry>,
    /// The entry run B recorded at that position, if any.
    pub b: Option<JournalEntry>,
}

impl DivergenceReport {
    /// The component implicated by the first mismatching entry.
    pub fn component(&self) -> &'static str {
        self.a.or(self.b).map_or("<none>", |e| e.component)
    }
}

impl std::fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "first divergence at tick {} entry {}: run A {:?}, run B {:?}",
            self.tick, self.entry_index, self.a, self.b
        )
    }
}

/// Machine-readable (JSON) form of a [`DivergenceReport`].
pub fn report_json(r: &DivergenceReport) -> String {
    fn ent(e: Option<JournalEntry>) -> String {
        match e {
            None => "null".to_owned(),
            Some(e) => format!(
                "{{\"tick\":{},\"component\":\"{}\",\"op\":\"{}\",\"key\":{}}}",
                e.tick, e.component, e.op, e.key
            ),
        }
    }
    format!(
        "{{\"tick\":{},\"entry_index\":{},\"component\":\"{}\",\"a\":{},\"b\":{}}}",
        r.tick,
        r.entry_index,
        r.component(),
        ent(r.a),
        ent(r.b)
    )
}

/// Compare two journals from a double run. Returns `None` when they are
/// identical; otherwise binary-searches the per-tick cumulative digests for
/// the first divergent tick and names the first mismatching entry within it.
pub fn first_divergence(a: &AccessJournal, b: &AccessJournal) -> Option<DivergenceReport> {
    if a.digest() == b.digest() && a.len() == b.len() {
        return None;
    }

    // Union of every tick either run recorded, ascending.
    let ta = a.ticks();
    let tb = b.ticks();
    let mut ticks: Vec<u64> = Vec::with_capacity(ta.len() + tb.len());
    let (mut i, mut j) = (0, 0);
    loop {
        match (ta.get(i), tb.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                ticks.push(x);
                i += 1;
                j += 1;
            }
            (Some(&x), Some(&y)) if x < y => {
                ticks.push(x);
                i += 1;
            }
            (Some(_), Some(&y)) => {
                ticks.push(y);
                j += 1;
            }
            (Some(&x), None) => {
                ticks.push(x);
                i += 1;
            }
            (None, Some(&y)) => {
                ticks.push(y);
                j += 1;
            }
            (None, None) => break,
        }
    }

    // Binary search: prefix digests agree up to some tick index, then
    // disagree forever after (a 64-bit FNV re-collision after divergence is
    // negligible, and the linear-scan oracle in the tests guards the
    // assumption). `partition_point` finds the first disagreeing index.
    let first_bad = ticks.partition_point(|&t| a.prefix_digest(t) == b.prefix_digest(t));
    let tick = match ticks.get(first_bad) {
        Some(&t) => t,
        // Digest/len mismatch but every prefix agrees — can only happen on
        // an empty tick union (both journals empty is excluded above).
        None => *ticks.last()?,
    };

    let ea = a.entries_at(tick);
    let eb = b.entries_at(tick);
    let entry_index = ea
        .iter()
        .zip(eb.iter())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| ea.len().min(eb.len()));
    Some(DivergenceReport {
        tick,
        entry_index,
        a: ea.get(entry_index).copied(),
        b: eb.get(entry_index).copied(),
    })
}

/// A cheap, clonable recording handle. `Default` is disabled: record calls
/// reduce to a single `None` branch and touch no memory.
#[derive(Clone, Default)]
pub struct JournalHandle {
    inner: Option<Rc<RefCell<AccessJournal>>>,
}

impl std::fmt::Debug for JournalHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() {
            "JournalHandle(enabled)"
        } else {
            "JournalHandle(disabled)"
        })
    }
}

impl JournalHandle {
    /// The disabled handle (same as `Default`).
    pub fn disabled() -> Self {
        JournalHandle::default()
    }

    /// A fresh enabled handle backed by its own journal.
    pub fn enabled() -> Self {
        JournalHandle {
            inner: Some(Rc::new(RefCell::new(AccessJournal::new()))),
        }
    }

    /// Whether records reach a journal.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one access; no-op when disabled.
    #[inline]
    pub fn record(&self, tick: u64, component: &'static str, op: &'static str, key: u64) {
        if let Some(j) = &self.inner {
            j.borrow_mut().record(tick, component, op, key);
        }
    }

    /// Snapshot the underlying journal, or `None` when disabled.
    pub fn snapshot(&self) -> Option<AccessJournal> {
        self.inner.as_ref().map(|j| j.borrow().clone())
    }
}

#[cfg(test)]
impl JournalHandle {
    /// Digest of the underlying journal, or `None` when disabled.
    pub(crate) fn digest(&self) -> Option<u64> {
        self.inner.as_ref().map(|j| j.borrow().digest())
    }
}

#[cfg(test)]
impl DivergenceReport {
    /// The key implicated by the first mismatching entry (run A wins ties).
    pub(crate) fn key(&self) -> Option<u64> {
        self.a.or(self.b).map(|e| e.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(j: &mut AccessJournal, script: &[(u64, &'static str, &'static str, u64)]) {
        for &(t, c, o, k) in script {
            j.record(t, c, o, k);
        }
    }

    /// Linear-scan oracle: first tick whose entry slices differ.
    fn linear_first_divergent_tick(a: &AccessJournal, b: &AccessJournal) -> Option<u64> {
        let mut ticks: Vec<u64> = a.ticks();
        ticks.extend(b.ticks());
        ticks.sort_unstable();
        ticks.dedup();
        ticks
            .into_iter()
            .find(|&t| a.entries_at(t) != b.entries_at(t))
    }

    #[test]
    fn identical_journals_have_no_divergence() {
        let script = [
            (10, "switch", "pop", 1),
            (10, "switch", "push", 2),
            (20, "ssd", "submit", 7),
            (35, "cache", "evict", 3),
        ];
        let mut a = AccessJournal::new();
        let mut b = AccessJournal::new();
        feed(&mut a, &script);
        feed(&mut b, &script);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(first_divergence(&a, &b), None);
    }

    #[test]
    fn divergent_key_is_localized_to_exact_tick_and_entry() {
        let mut a = AccessJournal::new();
        let mut b = AccessJournal::new();
        feed(
            &mut a,
            &[
                (10, "switch", "pop", 1),
                (20, "ssd", "submit", 7),
                (20, "ssd", "submit", 8),
                (30, "cache", "evict", 3),
            ],
        );
        feed(
            &mut b,
            &[
                (10, "switch", "pop", 1),
                (20, "ssd", "submit", 7),
                (20, "ssd", "submit", 9),  // diverges here
                (30, "cache", "evict", 4), // downstream noise, must not win
            ],
        );
        let r = first_divergence(&a, &b).expect("journals differ");
        assert_eq!(r.tick, 20);
        assert_eq!(r.entry_index, 1);
        assert_eq!(r.component(), "ssd");
        assert_eq!(r.key(), Some(8));
        assert_eq!(r.b.unwrap().key, 9);
        assert_eq!(Some(r.tick), linear_first_divergent_tick(&a, &b));
    }

    #[test]
    fn missing_entry_reports_shorter_run() {
        let mut a = AccessJournal::new();
        let mut b = AccessJournal::new();
        feed(&mut a, &[(5, "nic", "dma", 1), (5, "nic", "dma", 2)]);
        feed(&mut b, &[(5, "nic", "dma", 1)]);
        let r = first_divergence(&a, &b).expect("journals differ");
        assert_eq!(r.tick, 5);
        assert_eq!(r.entry_index, 1);
        assert_eq!(r.a.unwrap().key, 2);
        assert_eq!(r.b, None);
    }

    #[test]
    fn tick_present_in_only_one_run() {
        let mut a = AccessJournal::new();
        let mut b = AccessJournal::new();
        feed(&mut a, &[(5, "nic", "dma", 1), (9, "ssd", "gc", 4)]);
        feed(&mut b, &[(5, "nic", "dma", 1)]);
        let r = first_divergence(&a, &b).expect("journals differ");
        assert_eq!(r.tick, 9);
        assert_eq!(r.component(), "ssd");
        assert_eq!(Some(r.tick), linear_first_divergent_tick(&a, &b));
    }

    #[test]
    fn binary_search_matches_linear_scan_on_long_journals() {
        // Same long prefix, one flipped key deep inside; binary search must
        // land exactly where the linear oracle does.
        for flip_at in [0usize, 1, 63, 500, 999] {
            let mut a = AccessJournal::new();
            let mut b = AccessJournal::new();
            for i in 0..1000u64 {
                let tick = i * 3 + 7;
                a.record(tick, "switch", "pop", i);
                let key = if i as usize == flip_at {
                    i + 1_000_000
                } else {
                    i
                };
                b.record(tick, "switch", "pop", key);
            }
            let r = first_divergence(&a, &b).expect("journals differ");
            assert_eq!(
                Some(r.tick),
                linear_first_divergent_tick(&a, &b),
                "flip_at={flip_at}"
            );
            assert_eq!(r.tick, flip_at as u64 * 3 + 7);
        }
    }

    #[test]
    fn disabled_handle_is_free_and_silent() {
        let h = JournalHandle::disabled();
        h.record(1, "x", "y", 2);
        assert!(!h.is_enabled());
        assert_eq!(h.digest(), None);
        assert!(h.snapshot().is_none());
    }

    #[test]
    fn enabled_handle_shares_one_journal_across_clones() {
        let h = JournalHandle::enabled();
        let h2 = h.clone();
        h.record(1, "a", "op", 1);
        h2.record(2, "b", "op", 2);
        let snap = h.snapshot().unwrap();
        assert_eq!(snap.len(), 2);
        assert_eq!(h.digest(), h2.digest());
    }

    #[test]
    fn report_json_shape() {
        let mut a = AccessJournal::new();
        let mut b = AccessJournal::new();
        feed(&mut a, &[(5, "nic", "dma", 1)]);
        feed(&mut b, &[(5, "nic", "dma", 2)]);
        let r = first_divergence(&a, &b).unwrap();
        let json = report_json(&r);
        assert!(json.contains("\"tick\":5"));
        assert!(json.contains("\"component\":\"nic\""));
        assert!(json.contains("\"key\":1"));
        assert!(json.contains("\"key\":2"));
    }
}
