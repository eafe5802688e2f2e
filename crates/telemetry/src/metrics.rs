//! Named counters, gauges, and per-tenant histogram breakdowns.
//!
//! The registry reuses the deterministic containers and statistics from
//! `gimbal-sim`: insertion-ordered maps keyed by interned `&'static str`
//! names, and HDR-style [`Histogram`]s for per-tenant latency breakdowns.
//! Everything folds into a [`Digest`] in insertion order, so metrics join
//! the double-run identity checks alongside the event stream.

use gimbal_fabric::TenantId;
use gimbal_sim::{DetMap, Digest, Histogram};

use crate::event::Component;

/// A registry of named counters/gauges plus per-`(name, tenant)` histograms.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: DetMap<&'static str, u64>,
    gauges: DetMap<&'static str, f64>,
    per_tenant: DetMap<(&'static str, u32), Histogram>,
}

impl MetricsRegistry {
    /// An empty registry with one pre-registered event counter per
    /// [`Component`], so the tracer's record path never inserts (and thus
    /// never allocates) while counting events.
    pub(crate) fn new() -> Self {
        let mut r = MetricsRegistry::default();
        for c in Component::ALL {
            r.counters.insert(c.name(), 0);
        }
        r
    }

    /// Bump the event counter for `component` by one. Pre-registered in
    /// [`MetricsRegistry::new`]; allocation-free.
    #[inline]
    pub(crate) fn count_event(&mut self, component: Component) {
        if let Some(c) = self.counters.get_mut(&component.name()) {
            *c += 1;
        }
    }

    /// Add `delta` to the named counter, creating it at zero first.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.get_or_insert_with(name, || 0) += delta;
    }

    /// Read a counter (zero when never touched).
    pub fn counter(&self, name: &'static str) -> u64 {
        self.counters.get(&name).copied().unwrap_or(0)
    }

    /// Set a gauge to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        match self.gauges.get_mut(&name) {
            Some(g) => *g = value,
            None => {
                self.gauges.insert(name, value);
            }
        }
    }

    /// Record `value` into the per-tenant histogram `name`.
    pub fn observe(&mut self, name: &'static str, tenant: TenantId, value: u64) {
        self.per_tenant
            .get_or_insert_with((name, tenant.index() as u32), Histogram::new)
            .record(value);
    }

    /// Iterate counters in insertion order.
    pub(crate) fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterate gauges in insertion order.
    pub(crate) fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterate per-tenant histograms in insertion order.
    pub(crate) fn tenant_histograms(
        &self,
    ) -> impl Iterator<Item = (&'static str, u32, &Histogram)> + '_ {
        self.per_tenant.iter().map(|((n, t), h)| (*n, *t, h))
    }

    /// Fold every metric into `d` in insertion order.
    pub(crate) fn fold_into(&self, d: &mut Digest) {
        for (name, v) in self.counters.iter() {
            d.update(name.as_bytes());
            d.update_u64(*v);
        }
        for (name, v) in self.gauges.iter() {
            d.update(name.as_bytes());
            d.update_f64(*v);
        }
        for ((name, tenant), h) in self.per_tenant.iter() {
            d.update(name.as_bytes());
            d.update_u64(u64::from(*tenant));
            let s = h.summary();
            d.update_u64(s.count);
            d.update_f64(s.mean_ns);
            d.update_u64(s.p50_ns);
            d.update_u64(s.p99_ns);
            d.update_u64(s.max_ns);
        }
    }
}

#[cfg(test)]
impl MetricsRegistry {
    /// Add one to the named counter.
    pub(crate) fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Read a gauge.
    pub(crate) fn gauge(&self, name: &'static str) -> Option<f64> {
        self.gauges.get(&name).copied()
    }

    /// The per-tenant histogram for `name`, if any sample ever landed.
    pub(crate) fn tenant_histogram(
        &self,
        name: &'static str,
        tenant: TenantId,
    ) -> Option<&Histogram> {
        self.per_tenant.get(&(name, tenant.index() as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_round_trip() {
        let mut r = MetricsRegistry::new();
        assert_eq!(r.counter("rate"), 0, "pre-registered at zero");
        r.count_event(Component::Rate);
        r.count_event(Component::Rate);
        assert_eq!(r.counter("rate"), 2);
        r.inc("custom");
        r.add("custom", 4);
        assert_eq!(r.counter("custom"), 5);
        r.set_gauge("port_tx_bytes", 1.5e9);
        r.set_gauge("port_tx_bytes", 2.5e9);
        assert_eq!(r.gauge("port_tx_bytes"), Some(2.5e9));
        r.observe("device_latency_ns", TenantId(1), 80_000);
        r.observe("device_latency_ns", TenantId(1), 120_000);
        let h = r
            .tenant_histogram("device_latency_ns", TenantId(1))
            .unwrap();
        assert_eq!(h.count(), 2);
        assert!(r
            .tenant_histogram("device_latency_ns", TenantId(9))
            .is_none());
    }

    #[test]
    fn digest_reflects_metric_values() {
        let fold = |f: &dyn Fn(&mut MetricsRegistry)| {
            let mut r = MetricsRegistry::new();
            f(&mut r);
            let mut d = Digest::new();
            r.fold_into(&mut d);
            d.value()
        };
        let a = fold(&|r| r.add("x", 1));
        let b = fold(&|r| r.add("x", 1));
        let c = fold(&|r| r.add("x", 2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
