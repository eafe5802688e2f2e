//! Query API over a recorded event stream.
//!
//! A [`TraceView`] is a cheap ordered subset of a trace's events. Filters
//! return new views (the underlying events are borrowed, never copied), and
//! the adjacency helpers let conformance tests assert stream-local
//! invariants — "every consecutive pair satisfies P" — without hand-rolled
//! index loops.

use crate::event::{Component, Event};

/// An ordered, filterable view over borrowed events.
#[derive(Clone, Debug)]
pub struct TraceView<'a> {
    events: Vec<&'a Event>,
}

impl<'a> TraceView<'a> {
    /// View over a whole event slice, in stream order.
    pub(crate) fn new(events: &'a [Event]) -> Self {
        TraceView {
            events: events.iter().collect(),
        }
    }

    /// Keep events satisfying `keep`, preserving order.
    pub fn filter<F: Fn(&Event) -> bool>(&self, keep: F) -> TraceView<'a> {
        TraceView {
            events: self.events.iter().copied().filter(|e| keep(e)).collect(),
        }
    }

    /// Keep events from one component.
    pub fn component(&self, c: Component) -> TraceView<'a> {
        self.filter(|e| e.component() == c)
    }

    /// Keep events whose interned name equals `name`.
    pub fn named(&self, name: &str) -> TraceView<'a> {
        self.filter(|e| e.name() == name)
    }

    /// Events in the view.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterate the view in stream order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Event> + '_ {
        self.events.iter().copied()
    }

    /// First event in the view.
    pub fn first(&self) -> Option<&'a Event> {
        self.events.first().copied()
    }

    /// Count events satisfying `pred`.
    pub fn count<F: Fn(&Event) -> bool>(&self, pred: F) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    /// Iterate consecutive pairs `(events[i], events[i+1])` in order.
    pub(crate) fn adjacent_pairs(&self) -> impl Iterator<Item = (&'a Event, &'a Event)> + '_ {
        self.events.windows(2).map(|w| (w[0], w[1]))
    }

    /// The first consecutive pair violating `ok`, or `None` when every pair
    /// conforms. Returning the offending pair (instead of formatting a
    /// message) keeps this crate's record-path rule: callers build the
    /// diagnostics.
    pub fn first_violation<F: Fn(&Event, &Event) -> bool>(
        &self,
        ok: F,
    ) -> Option<(&'a Event, &'a Event)> {
        self.adjacent_pairs().find(|(a, b)| !ok(a, b))
    }
}

#[cfg(test)]
impl<'a> TraceView<'a> {
    /// Keep events stamped with tenant `t`.
    pub(crate) fn tenant(&self, t: gimbal_fabric::TenantId) -> TraceView<'a> {
        self.filter(|e| e.tenant == Some(t))
    }

    /// Keep events stamped with SSD `s`.
    pub(crate) fn ssd(&self, s: gimbal_fabric::SsdId) -> TraceView<'a> {
        self.filter(|e| e.ssd == s)
    }

    /// Keep events in the half-open virtual-time window `[from, to)`.
    pub(crate) fn window(
        &self,
        from: gimbal_sim::SimTime,
        to: gimbal_sim::SimTime,
    ) -> TraceView<'a> {
        self.filter(|e| e.at >= from && e.at < to)
    }

    /// The event at position `i`, if any.
    pub(crate) fn get(&self, i: usize) -> Option<&'a Event> {
        self.events.get(i).copied()
    }

    /// Last event in the view.
    pub(crate) fn last(&self) -> Option<&'a Event> {
        self.events.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use gimbal_fabric::{SsdId, TenantId};
    use gimbal_sim::SimTime;

    fn mk(seq: u64, us: u64, ssd: u32, tenant: Option<u32>, kind: EventKind) -> Event {
        Event {
            seq,
            at: SimTime::from_micros(us),
            ssd: SsdId(ssd),
            tenant: tenant.map(TenantId),
            kind,
        }
    }

    fn sample() -> Vec<Event> {
        vec![
            mk(0, 10, 0, Some(0), EventKind::SlotOpened { slot: 0 }),
            mk(1, 20, 0, Some(1), EventKind::SlotOpened { slot: 1 }),
            mk(2, 30, 1, None, EventKind::SsdGc { die: 2 }),
            mk(3, 40, 0, Some(0), EventKind::TenantDeferred { queued: 5 }),
            mk(4, 50, 0, Some(0), EventKind::TenantResumed),
        ]
    }

    #[test]
    fn filters_compose_and_preserve_order() {
        let evs = sample();
        let v = TraceView::new(&evs);
        assert_eq!(v.len(), 5);
        assert_eq!(v.tenant(TenantId(0)).len(), 3);
        assert_eq!(v.ssd(SsdId(1)).len(), 1);
        assert_eq!(v.component(Component::Scheduler).len(), 4);
        assert_eq!(v.named("tenant_resumed").len(), 1);
        let w = v.window(SimTime::from_micros(20), SimTime::from_micros(40));
        assert_eq!(w.len(), 2, "window is half-open");
        let t0 = v.tenant(TenantId(0)).component(Component::Scheduler);
        let seqs: Vec<u64> = t0.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 3, 4]);
        assert_eq!(t0.first().unwrap().seq, 0);
        assert_eq!(t0.last().unwrap().seq, 4);
        assert_eq!(t0.get(1).unwrap().seq, 3);
        assert_eq!(v.count(|e| e.tenant.is_none()), 1);
    }

    #[test]
    fn adjacency_helpers_find_violations() {
        let evs = sample();
        let v = TraceView::new(&evs);
        assert_eq!(v.adjacent_pairs().count(), 4);
        // Sequence numbers increase pairwise across the whole stream.
        assert!(v.first_violation(|a, b| a.seq < b.seq).is_none());
        // A deliberately false predicate reports the first offending pair.
        let (a, b) = v.first_violation(|a, _| a.seq >= 1).unwrap();
        assert_eq!((a.seq, b.seq), (0, 1));
    }
}
