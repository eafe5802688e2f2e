//! Deterministic structured tracing and metrics for the Gimbal stack.
//!
//! Gimbal's behaviour emerges from five interacting control loops — the
//! congestion state machine (§3.2), the dual token bucket (§3.3), ADMI
//! write-cost calibration (§3.4), DRR virtual-slot scheduling (§3.5) and
//! credit flow control (§3.6) — and end-of-run aggregates cannot show *why*
//! a run behaved as it did. This crate adds the missing layer:
//!
//! * [`Tracer`] — a bounded ring buffer of typed [`Event`]s, each stamped
//!   with the virtual-time instant and a monotone sequence number. Labels
//!   (component names, event names, state names) are interned `&'static str`,
//!   so recording never formats or allocates.
//! * [`TraceHandle`] — a cheap clonable handle components hold. Disabled
//!   (the default) it is a single `Option` branch per record call; the hot
//!   path costs nothing when tracing is off.
//! * [`MetricsRegistry`] — named counters/gauges plus per-tenant
//!   [`gimbal_sim::Histogram`] breakdowns, riding along in the tracer.
//! * [`TraceView`] — a query API (filter by tenant / SSD / component / time
//!   window, adjacent-pair assertions) that conformance tests use to verify
//!   the paper's algorithms *from the trace itself*.
//! * [`export`] — Chrome trace-event JSON (loadable in Perfetto) and JSONL.
//!
//! Determinism is a hard invariant: the same seed must produce the same
//! event stream byte for byte, so [`RecordedTrace::digest`] participates in
//! the double-run identity checks, and recording draws no randomness and
//! reads no ambient clocks — every event is stamped with a caller-supplied
//! [`gimbal_sim::SimTime`].

mod event;
pub mod export;
mod metrics;
mod tracer;
mod view;

pub use event::{CapsuleKind, Component, CongState, Event, EventKind, OverflowDirection};
pub use metrics::MetricsRegistry;
pub use tracer::{RecordedTrace, TraceConfig, TraceHandle, Tracer};
pub use view::TraceView;
