//! Trace exporters: Chrome trace-event JSON (Perfetto-loadable) and JSONL.
//!
//! This is the one place in the crate allowed to format and allocate —
//! exporters run after the simulation, never on the record path. Both
//! formats are hand-rolled (the workspace is dependency-free): one field
//! writer renders every member, event payloads included.
//!
//! Chrome mapping: `pid` is the SSD, `tid` is the tenant (0 = no tenant,
//! otherwise tenant index + 1), `ts` is virtual time in microseconds.
//! Token levels and the target rate export as counter events (`ph: "C"`),
//! which Perfetto renders as counter tracks; everything else is a
//! thread-scoped instant (`ph: "i"`).

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::event::Field::{Label, F64, U64};
use crate::event::{Event, EventKind, Field, Fields};
use crate::tracer::RecordedTrace;

/// Write `s` as a JSON string.
fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => push_fmt(out, format_args!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_fmt(out: &mut String, args: std::fmt::Arguments<'_>) {
    out.write_fmt(args).expect("fmt to String");
}

/// Separate a JSON member or array entry from the ones before it.
fn push_sep(out: &mut String, first: &mut bool) {
    if !std::mem::replace(first, false) {
        out.push(',');
    }
}

/// Write one `"key":value` object member into `out`, comma-separated from
/// the members before it. `{}` on an integral f64 prints no decimal point;
/// that is still a valid JSON number, so it is emitted as-is.
fn push_field(out: &mut String, key: &str, value: Field, first: &mut bool) {
    push_sep(out, first);
    push_quoted(out, key);
    out.push(':');
    match value {
        Field::U64(v) => push_fmt(out, format_args!("{v}")),
        Field::U32(v) => push_fmt(out, format_args!("{v}")),
        Field::F64(v) if v.is_finite() => push_fmt(out, format_args!("{v}")),
        Field::F64(_) => out.push_str("null"),
        Field::Bool(v) => push_fmt(out, format_args!("{v}")),
        Field::Label(s) => push_quoted(out, s),
        Field::Io(io) => push_quoted(out, if io.is_read() { "read" } else { "write" }),
        Field::State(s) => push_quoted(out, s.name()),
    }
}

/// Write `fields` as JSON object members into `out`.
fn push_members(out: &mut String, fields: &Fields, first: &mut bool) {
    for &(key, value) in fields {
        push_field(out, key, value, first);
    }
}

/// Write `fields` as one JSONL object line.
fn push_line(out: &mut String, fields: &Fields) {
    out.push('{');
    push_members(out, fields, &mut true);
    out.push_str("}\n");
}

/// Token levels and the target rate export as counter events on a stable
/// counter track; `None` for instants, which keep the event name.
fn counter_track(e: &Event) -> Option<&'static str> {
    match e.kind {
        EventKind::RateUpdate { .. } => Some("target_rate"),
        EventKind::BucketRefill { .. } => Some("tokens"),
        _ => None,
    }
}

/// Render the trace as a Chrome trace-event JSON document: one metadata
/// entry per SSD, then exactly one entry per retained event, in stream
/// order. Load the result in Perfetto (ui.perfetto.dev) or
/// `chrome://tracing`.
pub fn chrome_trace(trace: &RecordedTrace) -> String {
    let mut out = String::with_capacity(128 * trace.events.len() + 256);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;

    // One process_name metadata entry per SSD, in order of first appearance.
    let mut seen: Vec<u32> = Vec::new();
    for e in &trace.events {
        let ssd = e.ssd.index() as u32;
        if !seen.contains(&ssd) {
            seen.push(ssd);
            push_sep(&mut out, &mut first);
            push_fmt(
                &mut out,
                format_args!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{ssd},\"tid\":0,\"args\":{{\"name\":\"ssd{ssd}\"}}}}"
                ),
            );
        }
    }

    for e in &trace.events {
        push_sep(&mut out, &mut first);
        out.push('{');
        let track = counter_track(e);
        let mut members = true;
        let head = [
            ("name", Label(track.unwrap_or(e.name()))),
            ("cat", Label(e.component().name())),
            ("ph", Label(if track.is_some() { "C" } else { "i" })),
        ];
        push_members(&mut out, &head, &mut members);
        if track.is_none() {
            push_field(&mut out, "s", Label("t"), &mut members);
        }
        let stamp = [
            ("ts", F64(e.at.as_nanos() as f64 / 1000.0)),
            ("pid", U64(e.ssd.index() as u64)),
            ("tid", U64(e.tenant.map_or(0, |t| 1 + t.index() as u64))),
        ];
        push_members(&mut out, &stamp, &mut members);
        out.push_str(",\"args\":{");
        let mut args = true;
        push_field(&mut out, "seq", U64(e.seq), &mut args);
        e.kind
            .schema(|_, fields| push_members(&mut out, fields, &mut args));
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Render the trace as JSONL: one self-describing object per event, in
/// stream order, followed by one object per metric. Friendly to `grep` and
/// `jq`-style tooling.
pub fn jsonl(trace: &RecordedTrace) -> String {
    let mut out = String::with_capacity(160 * trace.events.len() + 256);
    for e in &trace.events {
        out.push('{');
        let mut first = true;
        let stamp = [
            ("seq", U64(e.seq)),
            ("ns", U64(e.at.as_nanos())),
            ("ssd", U64(e.ssd.index() as u64)),
        ];
        push_members(&mut out, &stamp, &mut first);
        match e.tenant {
            Some(t) => push_field(&mut out, "tenant", U64(t.index() as u64), &mut first),
            None => out.push_str(",\"tenant\":null"),
        }
        e.kind.schema(|name, fields| {
            let labels = [
                ("component", Label(e.component().name())),
                ("kind", Label(name)),
            ];
            push_members(&mut out, &labels, &mut first);
            push_members(&mut out, fields, &mut first);
        });
        out.push_str("}\n");
    }
    let m = &trace.metrics;
    let counters = m.counters().map(|(n, v)| ("counter", n, U64(v)));
    let gauges = m.gauges().map(|(n, v)| ("gauge", n, F64(v)));
    for (metric, name, value) in counters.chain(gauges) {
        let line = [
            ("metric", Label(metric)),
            ("name", Label(name)),
            ("value", value),
        ];
        push_line(&mut out, &line);
    }
    for (name, tenant, h) in m.tenant_histograms() {
        let s = h.summary();
        push_line(
            &mut out,
            &[
                ("metric", Label("histogram")),
                ("name", Label(name)),
                ("tenant", U64(u64::from(tenant))),
                ("count", U64(s.count)),
                ("mean_ns", F64(s.mean_ns)),
                ("p50_ns", U64(s.p50_ns)),
                ("p99_ns", U64(s.p99_ns)),
                ("p999_ns", U64(s.p999_ns)),
                ("max_ns", U64(s.max_ns)),
            ],
        );
    }
    out
}

/// Write the Chrome trace JSON to `path`.
pub fn write_chrome_trace<P: AsRef<Path>>(path: P, trace: &RecordedTrace) -> io::Result<()> {
    std::fs::write(path, chrome_trace(trace))
}

/// Write the JSONL rendering to `path`.
pub fn write_jsonl<P: AsRef<Path>>(path: P, trace: &RecordedTrace) -> io::Result<()> {
    std::fs::write(path, jsonl(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Component, CongState, EventKind};
    use crate::tracer::{TraceConfig, Tracer};
    use gimbal_fabric::{IoType, SsdId, TenantId};
    use gimbal_sim::SimTime;

    fn sample() -> RecordedTrace {
        let mut tr = Tracer::new(TraceConfig::default());
        tr.record(
            SimTime::from_micros(5),
            SsdId(0),
            None,
            EventKind::RateUpdate {
                io: IoType::Read,
                state: CongState::Congested,
                old_bps: 2.0e9,
                new_bps: 1.9e9,
            },
        );
        tr.record(
            SimTime::from_micros(7),
            SsdId(1),
            Some(TenantId(2)),
            EventKind::SlotOpened { slot: 3 },
        );
        tr.metrics_mut().observe("lat", TenantId(2), 80_000);
        tr.metrics_mut().set_gauge("port_tx_bytes", 1.0e9);
        tr.finish()
    }

    #[test]
    fn control_characters_escape_to_their_own_code_points() {
        let mut out = String::new();
        push_quoted(&mut out, "\u{1}\u{1f}");
        assert_eq!(out, "\"\\u0001\\u001f\"");
    }

    #[test]
    fn chrome_trace_has_expected_shape() {
        let s = chrome_trace(&sample());
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.ends_with("]}"));
        assert!(s.contains("\"name\":\"target_rate\""), "counter track: {s}");
        assert!(s.contains("\"ph\":\"C\""));
        assert!(s.contains("\"name\":\"slot_opened\""));
        assert!(s.contains("\"ph\":\"i\""));
        assert!(s.contains("\"args\":{\"name\":\"ssd0\"}"), "metadata: {s}");
        assert!(s.contains("\"tid\":3"), "tenant 2 maps to tid 3");
        // ts is virtual µs.
        assert!(s.contains("\"ts\":5"));
        let opens = s.matches('{').count();
        let closes = s.matches('}').count();
        assert_eq!(opens, closes, "balanced braces");
    }

    #[test]
    fn jsonl_is_one_object_per_line_with_metrics_tail() {
        let s = jsonl(&sample());
        let lines: Vec<&str> = s.lines().collect();
        // 2 events + one counter per component + 1 gauge + 1 histogram.
        assert_eq!(lines.len(), 2 + Component::ALL.len() + 1 + 1, "{s}");
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "line: {l}");
        }
        assert!(lines[0].contains("\"kind\":\"rate_update\""));
        assert!(lines[1].contains("\"tenant\":2"));
        assert!(s.contains("\"metric\":\"histogram\""));
        assert!(s.contains("\"metric\":\"gauge\""));
    }
}
