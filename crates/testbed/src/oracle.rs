//! The crash-consistency oracle for the write-back cache tier.
//!
//! The cache journals every durability-relevant transition as a
//! [`DurabilityEvent`] in virtual-time order. The oracle replays that
//! journal against a *shadow model* — an independent dirty-set built only
//! from `Dirtied` / `Cleaned` / `Superseded` / `Lost` transitions — and
//! proves, for every injected device death or simulated power loss, that
//!
//! * **no silent loss**: every acked-but-unflushed (shadow-dirty) line was
//!   surfaced in the `Lost` run that follows the marker, and
//! * **no phantom loss**: every surfaced `Lost` line really was shadow-dirty
//!   (nothing durable or never-acked was reported lost), and
//! * the surfaced [`StagedWriteLoss`] records aggregate to exactly the
//!   journal's per-tenant loss counts, and
//! * every flushed prefix respects WAL ordering: per tenant, first-issue
//!   flush writes carry non-decreasing WAL tags (retries after a transient
//!   `Requeued` are exempt — they legitimately re-issue an older tag), and
//! * end-of-run line conservation holds and matches [`WriteBackStats`]:
//!   `dirtied == cleaned + superseded + lost + residual_dirty`, and
//! * the journal really is in virtual-time order: `at` never decreases.
//!
//! Violations panic with a diagnostic; the durability and chaos suites run
//! the oracle over every fault plan.

use crate::kv::KvRunResult;
use crate::results::RunResult;
use gimbal_cache::{
    DurabilityEvent, DurabilityJournal, StagedWriteLoss, WriteBackStats, LOSS_EVENT_CMD,
};
use gimbal_fabric::TenantId;
use gimbal_sim::collections::{DetMap, DetSet};
use gimbal_sim::SimTime;

/// What the oracle verified over one SSD cache's journal. All checks have
/// already passed when a report is returned; the counts let tests assert
/// the run exercised real write-back activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Journal entries replayed.
    pub events: usize,
    /// Write commands acknowledged at DRAM cost.
    pub acked_cmds: u64,
    /// Clean→dirty transitions observed.
    pub dirtied: u64,
    /// Lines made durable by a successful flush.
    pub cleaned: u64,
    /// Dirty lines superseded on flash by later pass-through writes.
    pub superseded: u64,
    /// Dirty lines surfaced as losses across every marker.
    pub lost: u64,
    /// Lines still shadow-dirty when the run ended (in DRAM, unflushed).
    pub residual_dirty: u64,
    /// Power-loss plus device-death markers replayed.
    pub loss_markers: u32,
    /// First-issue WAL flush writes whose tag ordering was verified.
    pub wal_flushes_checked: u64,
}

/// Replay one SSD cache's journal against the shadow model and panic on any
/// crash-consistency violation. `ssd` indexes the cache; `losses` is the
/// run's full loss record set (filtered internally to this SSD's
/// dirty-tagged records); `stats` is the same cache's counter snapshot.
pub fn check_journal(
    ssd: usize,
    journal: &DurabilityJournal,
    losses: &[StagedWriteLoss],
    stats: &WriteBackStats,
) -> OracleReport {
    // Shadow dirty set: line → owner. Built exclusively from journal
    // transitions, never from cache internals.
    let mut shadow: DetMap<u64, TenantId> = DetMap::new();
    // Per-tenant highest WAL tag seen on a first-issue flush.
    let mut last_wal: DetMap<TenantId, u64> = DetMap::new();
    // Lines whose last flush was requeued: their next issue is a retry and
    // may legitimately carry a tag below a later line's already-issued tag.
    let mut retrying: DetSet<u64> = DetSet::new();
    // Per-tenant lines surfaced as lost, to reconcile against the typed
    // StagedWriteLoss records.
    let mut lost_per_tenant: DetMap<TenantId, u64> = DetMap::new();
    // Set between a PowerLoss/DeviceDeath marker and the end of its `Lost`
    // run; the shadow must be empty when the run closes.
    let mut draining = false;
    let mut last_at = SimTime::ZERO;

    let mut rep = OracleReport {
        events: journal.len(),
        ..OracleReport::default()
    };

    for (i, ev) in journal.iter().enumerate() {
        let at = ev.at();
        assert!(
            at >= last_at,
            "oracle[ssd {ssd}]: journal out of virtual-time order — event at \
             {at:?} after {last_at:?} (journal index {i})"
        );
        last_at = at;
        // A marker's `Lost` run ends at the first event of any other kind;
        // at that boundary every shadow-dirty line must have surfaced.
        if draining && !matches!(ev, DurabilityEvent::Lost { .. }) {
            assert!(
                shadow.is_empty(),
                "oracle[ssd {ssd}]: silent loss — {} dirty lines not surfaced \
                 after the loss marker (journal index {i})",
                shadow.len()
            );
            draining = false;
        }
        match ev {
            DurabilityEvent::Acked { .. } => rep.acked_cmds += 1,
            DurabilityEvent::Dirtied { line, tenant, .. } => {
                assert!(
                    shadow.insert(line, tenant).is_none(),
                    "oracle[ssd {ssd}]: Dirtied for already-dirty line {line} \
                     (journal index {i})"
                );
                rep.dirtied += 1;
            }
            DurabilityEvent::FlushIssued {
                line, tenant, wal, ..
            } => {
                assert!(
                    shadow.contains_key(&line),
                    "oracle[ssd {ssd}]: flush issued for non-dirty line {line} \
                     (journal index {i})"
                );
                let retry = retrying.remove(&line);
                if let Some(w) = wal {
                    if !retry {
                        if let Some(&prev) = last_wal.get(&tenant) {
                            assert!(
                                w >= prev,
                                "oracle[ssd {ssd}]: WAL order violated for tenant \
                                 {} — flush tag {w} after {prev} (journal index {i})",
                                tenant.index()
                            );
                        }
                        last_wal.insert(tenant, w);
                        rep.wal_flushes_checked += 1;
                    }
                }
            }
            DurabilityEvent::Cleaned { line, .. } => {
                assert!(
                    shadow.remove(&line).is_some(),
                    "oracle[ssd {ssd}]: Cleaned for non-dirty line {line} \
                     (journal index {i})"
                );
                retrying.remove(&line);
                rep.cleaned += 1;
            }
            DurabilityEvent::Requeued { line, .. } => {
                assert!(
                    shadow.contains_key(&line),
                    "oracle[ssd {ssd}]: Requeued for non-dirty line {line} \
                     (journal index {i})"
                );
                retrying.insert(line);
            }
            DurabilityEvent::Superseded { line, .. } => {
                assert!(
                    shadow.remove(&line).is_some(),
                    "oracle[ssd {ssd}]: Superseded for non-dirty line {line} \
                     (journal index {i})"
                );
                retrying.remove(&line);
                rep.superseded += 1;
            }
            DurabilityEvent::Lost { line, tenant, .. } => {
                assert!(
                    draining,
                    "oracle[ssd {ssd}]: Lost outside a loss marker's run \
                     (journal index {i})"
                );
                assert!(
                    shadow.remove(&line).is_some(),
                    "oracle[ssd {ssd}]: phantom loss — line {line} surfaced as \
                     lost but was not dirty (journal index {i})"
                );
                retrying.remove(&line);
                *lost_per_tenant.get_or_insert_with(tenant, || 0) += 1;
                rep.lost += 1;
            }
            DurabilityEvent::PassThrough { .. } => {}
            DurabilityEvent::PowerLoss { .. } | DurabilityEvent::DeviceDeath { .. } => {
                draining = true;
                rep.loss_markers += 1;
            }
        }
    }
    if draining {
        assert!(
            shadow.is_empty(),
            "oracle[ssd {ssd}]: silent loss — {} dirty lines not surfaced at \
             end of journal",
            shadow.len()
        );
    }
    rep.residual_dirty = shadow.len() as u64;

    // The typed StagedWriteLoss records must aggregate to exactly the
    // journal's per-tenant loss counts: no silent loss (a journaled loss
    // with no record), no phantom loss (a record the journal cannot back).
    let mut surfaced: DetMap<TenantId, u64> = DetMap::new();
    for l in losses.iter().filter(|l| l.ssd.index() == ssd && l.dirty) {
        assert_eq!(
            l.cmd, LOSS_EVENT_CMD,
            "oracle[ssd {ssd}]: dirty-tagged loss record without the loss \
             sentinel cmd"
        );
        *surfaced.get_or_insert_with(l.tenant, || 0) += u64::from(l.lines_lost);
    }
    for (t, n) in lost_per_tenant.iter() {
        assert_eq!(
            surfaced.get(t).copied().unwrap_or(0),
            *n,
            "oracle[ssd {ssd}]: tenant {} lost {n} lines per journal but the \
             surfaced records disagree",
            t.index()
        );
    }
    for (t, n) in surfaced.iter() {
        assert_eq!(
            lost_per_tenant.get(t).copied().unwrap_or(0),
            *n,
            "oracle[ssd {ssd}]: tenant {} surfaced {n} lost lines the journal \
             cannot back",
            t.index()
        );
    }

    // End-of-run conservation, from the journal alone and cross-checked
    // against the cache's own counters.
    assert_eq!(
        rep.dirtied,
        rep.cleaned + rep.superseded + rep.lost + rep.residual_dirty,
        "oracle[ssd {ssd}]: journal line conservation violated"
    );
    assert_eq!(
        (
            stats.acked_lines,
            stats.flushed_lines,
            stats.superseded_lines,
            stats.lost_lines,
            stats.dirty_lines,
        ),
        (
            rep.dirtied,
            rep.cleaned,
            rep.superseded,
            rep.lost,
            rep.residual_dirty,
        ),
        "oracle[ssd {ssd}]: WriteBackStats disagree with the journal replay"
    );
    rep
}

/// Run the oracle over every write-back cache of a fio-testbed run. Returns
/// one report per SSD; panics on any violation. Empty when the run was not
/// write-back.
pub fn check_run(res: &RunResult) -> Vec<OracleReport> {
    res.write_back
        .iter()
        .zip(&res.journals)
        .enumerate()
        .map(|(ssd, (stats, journal))| check_journal(ssd, journal, &res.cache_losses, stats))
        .collect()
}

/// Run the oracle over every write-back cache of a KV-testbed run.
pub fn check_kv_run(res: &KvRunResult) -> Vec<OracleReport> {
    res.write_back
        .iter()
        .zip(&res.journals)
        .enumerate()
        .map(|(ssd, (stats, journal))| check_journal(ssd, journal, &res.cache_losses, stats))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gimbal_fabric::SsdId;

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    fn dirtied(line: u64, wal: Option<u64>) -> DurabilityEvent {
        DurabilityEvent::Dirtied {
            line,
            tenant: TenantId(0),
            wal,
            at: t0(),
        }
    }

    fn cleaned(line: u64) -> DurabilityEvent {
        DurabilityEvent::Cleaned {
            line,
            tenant: TenantId(0),
            at: t0(),
        }
    }

    fn issued(line: u64, wal: Option<u64>) -> DurabilityEvent {
        DurabilityEvent::FlushIssued {
            id: 1 << 63,
            line,
            tenant: TenantId(0),
            wal,
            at: t0(),
        }
    }

    fn lost(line: u64) -> DurabilityEvent {
        DurabilityEvent::Lost {
            line,
            tenant: TenantId(0),
            wal: None,
            at: t0(),
        }
    }

    fn stats(dirtied: u64, cleaned: u64, lost: u64, dirty: u64) -> WriteBackStats {
        WriteBackStats {
            acked_lines: dirtied,
            flushed_lines: cleaned,
            lost_lines: lost,
            dirty_lines: dirty,
            ..WriteBackStats::default()
        }
    }

    fn loss_record(lines: u32) -> StagedWriteLoss {
        StagedWriteLoss {
            cmd: LOSS_EVENT_CMD,
            tenant: TenantId(0),
            ssd: SsdId(0),
            lines_lost: lines,
            at: t0(),
            dirty: true,
        }
    }

    #[test]
    fn clean_journal_passes() {
        let j: DurabilityJournal = [
            dirtied(1, None),
            dirtied(2, Some(7)),
            issued(2, Some(7)),
            cleaned(2),
            issued(1, None),
            cleaned(1),
        ]
        .into_iter()
        .collect();
        let rep = check_journal(0, &j, &[], &stats(2, 2, 0, 0));
        assert_eq!(rep.dirtied, 2);
        assert_eq!(rep.cleaned, 2);
        assert_eq!(rep.wal_flushes_checked, 1);
    }

    #[test]
    fn exact_loss_accounting_passes() {
        let j: DurabilityJournal = [
            dirtied(1, None),
            dirtied(2, None),
            DurabilityEvent::PowerLoss { at: t0() },
            lost(1),
            lost(2),
        ]
        .into_iter()
        .collect();
        let rep = check_journal(0, &j, &[loss_record(2)], &stats(2, 0, 2, 0));
        assert_eq!(rep.lost, 2);
        assert_eq!(rep.loss_markers, 1);
    }

    #[test]
    #[should_panic(expected = "silent loss")]
    fn silent_loss_is_caught() {
        // Two dirty lines, only one surfaced after the marker.
        let j: DurabilityJournal = [
            dirtied(1, None),
            dirtied(2, None),
            DurabilityEvent::PowerLoss { at: t0() },
            lost(1),
        ]
        .into_iter()
        .collect();
        check_journal(0, &j, &[loss_record(1)], &stats(2, 0, 1, 1));
    }

    #[test]
    #[should_panic(expected = "phantom loss")]
    fn phantom_loss_is_caught() {
        // Line 3 was never dirtied but is reported lost.
        let j: DurabilityJournal = [
            dirtied(1, None),
            DurabilityEvent::PowerLoss { at: t0() },
            lost(3),
        ]
        .into_iter()
        .collect();
        check_journal(0, &j, &[loss_record(1)], &stats(1, 0, 1, 0));
    }

    #[test]
    #[should_panic(expected = "WAL order violated")]
    fn wal_reorder_is_caught() {
        let j: DurabilityJournal = [
            dirtied(1, Some(9)),
            dirtied(2, Some(4)),
            issued(1, Some(9)),
            issued(2, Some(4)),
        ]
        .into_iter()
        .collect();
        check_journal(0, &j, &[], &stats(2, 0, 0, 2));
    }

    #[test]
    fn requeued_retry_may_reissue_an_older_tag() {
        let j: DurabilityJournal = [
            dirtied(1, Some(4)),
            dirtied(2, Some(9)),
            issued(1, Some(4)),
            issued(2, Some(9)),
            DurabilityEvent::Requeued {
                line: 1,
                tenant: TenantId(0),
                wal: Some(4),
                at: t0(),
            },
            issued(1, Some(4)), // retry: tag 4 after tag 9 is legitimate
            cleaned(1),
            cleaned(2),
        ]
        .into_iter()
        .collect();
        let rep = check_journal(0, &j, &[], &stats(2, 2, 0, 0));
        assert_eq!(rep.cleaned, 2);
    }

    #[test]
    #[should_panic(expected = "records disagree")]
    fn missing_surfaced_record_is_caught() {
        let j: DurabilityJournal = [
            dirtied(1, None),
            DurabilityEvent::DeviceDeath { at: t0() },
            lost(1),
        ]
        .into_iter()
        .collect();
        check_journal(0, &j, &[], &stats(1, 0, 1, 0));
    }

    #[test]
    #[should_panic(expected = "virtual-time order")]
    fn time_going_backwards_is_caught() {
        let j: DurabilityJournal = [
            dirtied(1, None),
            DurabilityEvent::Cleaned {
                line: 1,
                tenant: TenantId(0),
                at: SimTime::from_nanos(5),
            },
            DurabilityEvent::PowerLoss {
                at: SimTime::from_nanos(4),
            },
        ]
        .into_iter()
        .collect();
        check_journal(0, &j, &[], &stats(1, 1, 0, 0));
    }
}
