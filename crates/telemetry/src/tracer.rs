//! The bounded event ring, its configuration, and the shared handle.
//!
//! The [`Tracer`] owns a ring of [`Event`]s whose backing storage is
//! allocated once, up front: when the ring is full the oldest event is
//! evicted (and counted), so what survives is always the *latest contiguous
//! suffix* of the stream — adjacency and continuity checks over the retained
//! events stay valid. Components reach the tracer through a [`TraceHandle`],
//! a clonable `Option<Rc<RefCell<..>>>`: the disabled handle (the default)
//! reduces every record call to one branch on `None`, so instrumentation
//! left in place costs nothing when tracing is off.

#![expect(
    clippy::disallowed_types,
    reason = "D8 owner: every component records into one tracer through a TraceHandle"
)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use gimbal_fabric::{SsdId, TenantId};
use gimbal_sim::{Digest, SimTime};

use crate::event::{Event, EventKind};
use crate::metrics::MetricsRegistry;
use crate::view::TraceView;

/// Tracing configuration, carried by `TestbedConfig`.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Maximum events retained; older events are evicted (and counted) once
    /// the ring is full. The backing storage is allocated once, up front.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        // Roughly enough for a few hundred milliseconds of a busy testbed
        // run; conformance suites that must see *every* event raise it.
        TraceConfig { capacity: 1 << 16 }
    }
}

impl TraceConfig {
    /// Panic on a degenerate configuration.
    pub fn validate(&self) {
        assert!(self.capacity > 0, "trace ring capacity must be non-zero");
    }
}

/// The bounded, deterministic event recorder.
#[derive(Debug)]
pub struct Tracer {
    capacity: usize,
    events: VecDeque<Event>,
    next_seq: u64,
    dropped_oldest: u64,
    metrics: MetricsRegistry,
}

impl Tracer {
    /// Build a tracer; the ring's storage is allocated here, once.
    pub fn new(cfg: TraceConfig) -> Self {
        cfg.validate();
        Tracer {
            capacity: cfg.capacity,
            events: VecDeque::with_capacity(cfg.capacity),
            next_seq: 0,
            dropped_oldest: 0,
            metrics: MetricsRegistry::new(),
        }
    }

    /// Record one event at virtual-time `at`. Allocation-free after
    /// construction: eviction recycles ring slots and the per-component
    /// counters are pre-registered.
    #[inline]
    pub fn record(&mut self, at: SimTime, ssd: SsdId, tenant: Option<TenantId>, kind: EventKind) {
        self.metrics.count_event(kind.component());
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped_oldest += 1;
        }
        self.events.push_back(Event {
            seq,
            at,
            ssd,
            tenant,
            kind,
        });
    }

    /// Mutable access to the metrics registry (counters, gauges, per-tenant
    /// histograms recorded alongside the event stream).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Events currently retained in the ring.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drain the tracer into an immutable, exportable snapshot. The tracer
    /// is left empty but keeps its sequence counter, so a later drain never
    /// reuses sequence numbers.
    pub fn finish(&mut self) -> RecordedTrace {
        RecordedTrace {
            events: self.events.drain(..).collect(),
            total_recorded: self.next_seq,
            dropped_oldest: self.dropped_oldest,
            metrics: std::mem::take(&mut self.metrics),
        }
    }
}

/// An immutable snapshot of a finished trace: the retained event suffix,
/// stream totals, and the metrics registry.
#[derive(Clone, Debug)]
pub struct RecordedTrace {
    /// Retained events, oldest first, sequence numbers strictly increasing.
    pub events: Vec<Event>,
    /// Total events ever recorded, including evicted ones.
    pub total_recorded: u64,
    /// Events evicted before the snapshot.
    pub dropped_oldest: u64,
    /// Counters, gauges, and per-tenant histograms.
    pub metrics: MetricsRegistry,
}

impl RecordedTrace {
    /// A query view over the retained events.
    pub fn view(&self) -> TraceView<'_> {
        TraceView::new(&self.events)
    }

    /// Deterministic fingerprint over the full snapshot: every retained
    /// event, the stream totals, and the metrics. Joins the double-run
    /// identity checks.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.update_u64(self.total_recorded);
        d.update_u64(self.dropped_oldest);
        for e in &self.events {
            e.fold_into(&mut d);
        }
        self.metrics.fold_into(&mut d);
        d.value()
    }
}

/// A cheap, clonable recording handle. `Default` is disabled: record calls
/// reduce to a single `None` branch and touch no memory.
#[derive(Clone, Default)]
pub struct TraceHandle {
    inner: Option<Rc<RefCell<Tracer>>>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() {
            "TraceHandle(enabled)"
        } else {
            "TraceHandle(disabled)"
        })
    }
}

impl TraceHandle {
    /// The disabled handle (same as `Default`).
    pub fn disabled() -> Self {
        TraceHandle::default()
    }

    /// A handle feeding the shared tracer.
    pub fn attached(tracer: &Rc<RefCell<Tracer>>) -> Self {
        TraceHandle {
            inner: Some(Rc::clone(tracer)),
        }
    }

    /// A handle feeding a fresh tracer for `config`: a run's recorder.
    pub fn new(config: &TraceConfig) -> Self {
        TraceHandle::attached(&Rc::new(RefCell::new(Tracer::new(config.clone()))))
    }

    /// Close the recording every clone of this handle feeds; `None` when
    /// disabled. The run's owner calls it once, at the end.
    pub fn finish(&self) -> Option<RecordedTrace> {
        self.inner.as_ref().map(|t| t.borrow_mut().finish())
    }

    /// Whether records reach a tracer.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one event at virtual-time `at`; no-op when disabled.
    #[inline]
    pub fn record(&self, at: SimTime, ssd: SsdId, tenant: Option<TenantId>, kind: EventKind) {
        if let Some(t) = &self.inner {
            t.borrow_mut().record(at, ssd, tenant, kind);
        }
    }

    /// Record `value` into the per-tenant histogram `name`; no-op when
    /// disabled.
    #[inline]
    pub fn observe(&self, name: &'static str, tenant: TenantId, value: u64) {
        if let Some(t) = &self.inner {
            t.borrow_mut().metrics_mut().observe(name, tenant, value);
        }
    }

    /// Set a gauge; no-op when disabled.
    #[inline]
    pub fn set_gauge(&self, name: &'static str, value: f64) {
        if let Some(t) = &self.inner {
            t.borrow_mut().metrics_mut().set_gauge(name, value);
        }
    }
}

#[cfg(test)]
impl TraceHandle {
    /// Add `delta` to a named counter; no-op when disabled.
    #[inline]
    pub(crate) fn add(&self, name: &'static str, delta: u64) {
        if let Some(t) = &self.inner {
            t.borrow_mut().metrics_mut().add(name, delta);
        }
    }
}

#[cfg(test)]
impl RecordedTrace {
    /// Retained event count.
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
impl Tracer {
    /// Total events ever recorded (retained + evicted).
    pub(crate) fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted from the ring so far.
    pub(crate) fn dropped_oldest(&self) -> u64 {
        self.dropped_oldest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> EventKind {
        EventKind::SsdGc { die: i as u32 }
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn sequence_numbers_are_monotone_and_ring_keeps_latest_suffix() {
        let mut tr = Tracer::new(TraceConfig { capacity: 4 });
        for i in 0..10 {
            tr.record(t(i), SsdId(0), None, ev(i));
        }
        assert_eq!(tr.len(), 4);
        assert_eq!(tr.total_recorded(), 10);
        assert_eq!(tr.dropped_oldest(), 6);
        let snap = tr.finish();
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "latest contiguous suffix");
        assert_eq!(snap.dropped_oldest, 6);
        // The tracer drained but kept its counter.
        assert_eq!(tr.total_recorded(), 10);
        assert!(tr.is_empty());
    }

    #[test]
    fn digest_identical_for_identical_streams_and_sensitive_to_order() {
        let run = |order: &[u64]| {
            let mut tr = Tracer::new(TraceConfig::default());
            for &i in order {
                tr.record(t(i), SsdId(0), Some(TenantId(i as u32 % 2)), ev(i));
            }
            tr.finish().digest()
        };
        assert_eq!(run(&[1, 2, 3]), run(&[1, 2, 3]));
        assert_ne!(run(&[1, 2, 3]), run(&[1, 3, 2]));
    }

    #[test]
    fn disabled_handle_is_inert_and_enabled_handle_records() {
        let h = TraceHandle::disabled();
        assert!(!h.is_enabled());
        h.record(t(1), SsdId(0), None, ev(1)); // must not panic
        h.observe("lat", TenantId(0), 5);

        let tracer = Rc::new(RefCell::new(Tracer::new(TraceConfig::default())));
        let h = TraceHandle::attached(&tracer);
        let h2 = h.clone();
        assert!(h.is_enabled());
        h.record(t(1), SsdId(0), None, ev(1));
        h2.record(t(2), SsdId(0), None, ev(2));
        h.observe("lat", TenantId(3), 42);
        h.set_gauge("g", 1.0);
        h.add("c", 2);
        let snap = tracer.borrow_mut().finish();
        assert_eq!(snap.len(), 2);
        assert_eq!(
            snap.metrics.counter("ssd"),
            2,
            "component counter rode along"
        );
        assert_eq!(snap.metrics.counter("c"), 2);
        assert!(snap.metrics.tenant_histogram("lat", TenantId(3)).is_some());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_is_rejected() {
        Tracer::new(TraceConfig { capacity: 0 });
    }
}
