//! Trace conformance: the telemetry stream is not just reproducible, it is
//! *semantically correct* — the events describe a run that obeys the
//! algorithms of the paper.
//!
//! Invariants checked here, all from the exported event stream (never by
//! poking at private fields):
//!
//! * **Algorithm 1 state machine** — congestion transitions form a
//!   continuous per-(SSD, IO-type) chain, every threshold/EWMA snapshot
//!   re-validates the branch that produced it, and a smooth latency ramp
//!   only ever moves between adjacent states (plus the one documented
//!   rank-2 jump, Overloaded → CongestionAvoidance on recovery: while
//!   Overloaded the threshold is pinned at `Thresh_max`, so the Congested
//!   band `[Thresh, Thresh_max)` is empty and recovery skips it).
//! * **Rate monotonicity** — the target rate never increases on a
//!   completion observed in the Congested state.
//! * **Algorithm 4 overflow** — tokens move bucket-to-bucket only when the
//!   source bucket sat at full capacity, i.e. its IO type was idle.
//! * **Algorithm 3 credit halving** — every `CreditHalved` event records
//!   `after == max(before / 2, 1)`.
//! * **Exporter round-trip** — the Chrome trace-event JSON parses with an
//!   in-test recursive-descent JSON parser and maps back onto the recorded
//!   events one-to-one.
#![expect(
    clippy::disallowed_types,
    clippy::panic,
    clippy::unreachable,
    reason = "the harness owns the tracer it attaches, and its helpers fail the test on an unexpected event"
)]

mod common;

use common::mixed_workers;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;

use gimbal_repro::fabric::{IoType, RetryConfig, SsdId};
use gimbal_repro::gimbal::{Params, RateController, WriteCostEstimator};
use gimbal_repro::sim::{FaultPlan, FaultWindow, SimDuration, SimTime, SsdFaultSpec};
use gimbal_repro::telemetry::export::chrome_trace;
use gimbal_repro::telemetry::{
    CongState, Event, EventKind, RecordedTrace, TraceConfig, TraceHandle, Tracer,
};
use gimbal_repro::testbed::{
    AdmissionPolicy, CacheConfig, FaultConfig, Precondition, RunResult, Scheme, Testbed,
    TestbedConfig, WorkerSpec,
};
use gimbal_repro::workload::FioSpec;

const CAP: u64 = 512 * 1024 * 1024 / 4096;
const EPS: f64 = 1e-6;

fn ms(v: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(v)
}

/// One traced Gimbal run shared by the testbed-level tests. The plan mixes
/// capsule loss (fabric events, retries) with a 100 ms GC storm (SSD stall
/// events; the storm outlasts the ~62 ms retry budget, so timeouts — and
/// therefore credit halvings — are guaranteed).
fn traced_run() -> &'static RunResult {
    static RUN: OnceLock<RunResult> = OnceLock::new();
    RUN.get_or_init(|| {
        let cfg = TestbedConfig {
            scheme: Scheme::Gimbal,
            precondition: Precondition::Fragmented,
            duration: SimDuration::from_millis(400),
            warmup: SimDuration::from_millis(100),
            seed: 17,
            faults: Some(FaultConfig {
                plan: FaultPlan {
                    cmd_loss_prob: 0.02,
                    cpl_loss_prob: 0.02,
                    burst_windows: vec![FaultWindow::new(ms(120), ms(130))],
                    ssd: vec![SsdFaultSpec {
                        stall_windows: vec![FaultWindow::new(ms(180), ms(280))],
                        ..SsdFaultSpec::default()
                    }],
                    nodes: vec![],
                    power_loss_at: None,
                },
                retry: RetryConfig::default(),
            }),
            // A small cache tier so the Cache component shows up in the
            // combined stream (misses and fills record even when the
            // uniform pattern rarely re-reads a line).
            cache: Some(CacheConfig {
                policy: AdmissionPolicy::Always,
                ..CacheConfig::for_mb(16)
            }),
            trace: Some(TraceConfig { capacity: 1 << 21 }),
            ..TestbedConfig::default()
        };
        Testbed::new(cfg, mixed_workers(3, 3)).run()
    })
}

fn run_trace() -> &'static RecordedTrace {
    let trace = traced_run().trace.as_ref().expect("trace enabled");
    assert_eq!(trace.dropped_oldest, 0, "ring too small for conformance");
    trace
}

/// Re-validate one transition's snapshot against Algorithm 1's branch
/// arithmetic. `from` is the previous state; the EWMA/threshold values were
/// sampled inside the update that produced the transition.
fn check_transition_snapshot(e: &Event, p: &Params) {
    let tmin = p.thresh_min.as_nanos() as f64;
    let tmax = p.thresh_max.as_nanos() as f64;
    let EventKind::CongestionTransition {
        to,
        ewma_ns,
        thresh_before_ns,
        thresh_after_ns,
        ..
    } = e.kind
    else {
        panic!("not a transition: {e:?}");
    };
    assert!(
        (tmin - EPS..=tmax + EPS).contains(&thresh_after_ns),
        "threshold left [min, max]: {e:?}"
    );
    match to {
        CongState::Overloaded => {
            assert!(ewma_ns >= tmax - EPS, "overloaded below Thresh_max: {e:?}");
            assert!(
                (thresh_after_ns - tmax).abs() < EPS,
                "overload must pin the threshold at Thresh_max: {e:?}"
            );
        }
        CongState::Congested => {
            assert!(
                ewma_ns >= thresh_before_ns - EPS && ewma_ns < tmax + EPS,
                "congested outside [Thresh, Thresh_max): {e:?}"
            );
            let expect = (thresh_before_ns + tmax) / 2.0;
            assert!(
                (thresh_after_ns - expect.max(tmin)).abs() < EPS,
                "congestion must spring the threshold to the midpoint: {e:?}"
            );
        }
        CongState::CongestionAvoidance => {
            assert!(
                ewma_ns >= tmin - EPS && ewma_ns < thresh_before_ns + EPS,
                "CA outside [Thresh_min, Thresh): {e:?}"
            );
            let expect = (thresh_before_ns - p.alpha_t * (thresh_before_ns - ewma_ns)).max(tmin);
            assert!(
                (thresh_after_ns - expect).abs() < EPS,
                "CA must decay the threshold toward the EWMA: {e:?}"
            );
        }
        CongState::Underutilized => {
            assert!(
                ewma_ns < tmin + EPS,
                "underutilized above Thresh_min: {e:?}"
            );
            let expect = (thresh_before_ns - p.alpha_t * (thresh_before_ns - ewma_ns)).max(tmin);
            assert!(
                (thresh_after_ns - expect).abs() < EPS,
                "decay must also run while underutilized: {e:?}"
            );
        }
    }
}

/// The per-(SSD, IO-type) congestion streams from the real testbed run are
/// continuous (`prev.to == next.from`, starting from Underutilized) and
/// every snapshot re-validates Algorithm 1's branch that produced it.
#[test]
fn congestion_streams_are_continuous_and_snapshots_conform() {
    let trace = run_trace();
    let p = Params::default();
    let view = trace.view();
    let transitions = view.named("congestion_transition");
    assert!(!transitions.is_empty(), "no congestion activity recorded");
    for ssd in 0..1u32 {
        for io in [IoType::Read, IoType::Write] {
            let stream = transitions.filter(|e| {
                e.ssd == SsdId(ssd)
                    && matches!(e.kind, EventKind::CongestionTransition { io: i, .. } if i == io)
            });
            if let Some(first) = stream.first() {
                let EventKind::CongestionTransition { from, .. } = first.kind else {
                    unreachable!()
                };
                assert_eq!(
                    from,
                    CongState::Underutilized,
                    "controllers start Underutilized: {first:?}"
                );
            }
            if let Some((a, b)) = stream.first_violation(|prev, next| {
                let EventKind::CongestionTransition { to, .. } = prev.kind else {
                    return false;
                };
                let EventKind::CongestionTransition { from, .. } = next.kind else {
                    return false;
                };
                to == from
            }) {
                panic!("congestion stream tore between {a:?} and {b:?}");
            }
            for e in stream.iter() {
                check_transition_snapshot(e, &p);
            }
        }
    }
}

/// Drive a `RateController` directly with a smooth latency ramp (up through
/// every band, then back down) and assert every transition is in the
/// adjacency set of Algorithm 1: one rung at a time, plus the documented
/// Overloaded → CongestionAvoidance recovery jump.
#[test]
fn smooth_latency_ramp_moves_between_adjacent_states_only() {
    let tracer = Rc::new(RefCell::new(Tracer::new(TraceConfig::default())));
    let mut c = RateController::new(Params::default());
    c.attach_trace(TraceHandle::attached(&tracer), SsdId(0));
    let mut t_us = 0u64;
    let mut feed = |c: &mut RateController, lat_us: u64| {
        t_us += 100;
        c.on_completion(
            SimTime::from_micros(t_us),
            IoType::Read,
            4096,
            SimDuration::from_micros(lat_us),
        );
    };
    // Up: 300 µs → 1800 µs in 5 µs steps (through CA, Congested, into
    // Overloaded), then back down to 80 µs (recovery into Underutilized).
    for lat in (300..=1800).step_by(5) {
        feed(&mut c, lat);
    }
    for lat in (80..=1800).rev().step_by(5) {
        feed(&mut c, lat);
    }
    let trace = tracer.borrow_mut().finish();
    let view = trace.view();
    let transitions = view.named("congestion_transition");
    use CongState::{
        Congested as C, CongestionAvoidance as Ca, Overloaded as O, Underutilized as U,
    };
    const ALLOWED: [(CongState, CongState); 6] =
        [(U, Ca), (Ca, U), (Ca, C), (C, Ca), (C, O), (O, Ca)];
    let mut seen = [false; 4];
    for e in transitions.iter() {
        let EventKind::CongestionTransition { from, to, .. } = e.kind else {
            unreachable!()
        };
        seen[from.rank() as usize] = true;
        seen[to.rank() as usize] = true;
        assert!(
            ALLOWED.contains(&(from, to)),
            "non-adjacent transition under a smooth ramp: {e:?}"
        );
    }
    assert_eq!(
        seen, [true; 4],
        "the ramp must visit all four congestion states"
    );
    // The same trace exercises rate monotonicity under congestion, with a
    // guaranteed non-empty sample.
    let congested_updates = view.filter(|e| {
        matches!(
            e.kind,
            EventKind::RateUpdate {
                state: CongState::Congested,
                ..
            }
        )
    });
    assert!(!congested_updates.is_empty(), "ramp never got Congested");
    for e in congested_updates.iter() {
        let EventKind::RateUpdate {
            old_bps, new_bps, ..
        } = e.kind
        else {
            unreachable!()
        };
        assert!(
            new_bps <= old_bps + EPS,
            "rate increased while Congested: {e:?}"
        );
    }
}

/// In the full testbed run, no completion observed in the Congested state
/// ever raises the target rate.
#[test]
fn rate_never_increases_while_congested() {
    let view = run_trace().view();
    for e in view.named("rate_update").iter() {
        let EventKind::RateUpdate {
            state,
            old_bps,
            new_bps,
            ..
        } = e.kind
        else {
            unreachable!()
        };
        if state == CongState::Congested {
            assert!(
                new_bps <= old_bps + EPS,
                "rate increased while Congested: {e:?}"
            );
        }
    }
}

/// Algorithm 4: a bucket only spills to its sibling when it filled to
/// capacity — the recorded source-bucket level must sit at `bucket_bytes`,
/// proving the donating IO type was idle.
#[test]
fn overflow_tokens_only_flow_when_the_source_bucket_is_full() {
    let view = run_trace().view();
    let transfers = view.named("overflow_transfer");
    assert!(
        !transfers.is_empty(),
        "a 3r/3w mix must idle one bucket at some point"
    );
    let cap = Params::default().bucket_bytes as f64;
    for e in transfers.iter() {
        let EventKind::OverflowTransfer {
            amount, src_tokens, ..
        } = e.kind
        else {
            unreachable!()
        };
        assert!(amount > 0.0, "empty transfer recorded: {e:?}");
        assert!(
            (src_tokens - cap).abs() < EPS,
            "overflow from a non-full bucket (src {src_tokens}, cap {cap}): {e:?}"
        );
    }
}

/// Algorithm 3: every credit halving in the trace shrank the window to
/// exactly `max(before / 2, 1)`. The GC storm outlasts the retry budget, so
/// timeouts (and halvings) are guaranteed to appear.
#[test]
fn credit_grants_halve_after_a_timeout() {
    let res = traced_run();
    let view = run_trace().view();
    assert!(res.faults.timed_out > 0, "storm produced no timeouts");
    let halvings = view.named("credit_halved");
    assert!(!halvings.is_empty(), "timeouts recorded but no halvings");
    for e in halvings.iter() {
        let EventKind::CreditHalved { before, after } = e.kind else {
            unreachable!()
        };
        assert_eq!(after, (before / 2).max(1), "halving must be exact: {e:?}");
        assert!(e.tenant.is_some(), "halving must be tenant-attributed");
    }
    // Grants flow the other way on surviving completions.
    assert!(
        !view.named("credit_granted").is_empty(),
        "no piggybacked credit grants recorded"
    );
}

/// A command that exhausts its retry budget made the original transmission
/// plus `max_retries` retransmissions, and its `TimedOut` event says so.
#[test]
fn timed_out_events_count_every_attempt() {
    let want = RetryConfig::default().max_retries + 1;
    let timeouts = run_trace().view().named("timed_out");
    assert!(!timeouts.is_empty(), "storm produced no timeouts");
    for e in timeouts.iter() {
        let EventKind::TimedOut { attempts, .. } = e.kind else {
            unreachable!()
        };
        assert_eq!(attempts, want, "attempts must include the original: {e:?}");
    }
}

/// Every component of the event taxonomy shows up in the combined run, and
/// the per-component metric counters agree exactly with the event stream
/// (nothing was recorded without being counted, or vice versa).
#[test]
fn all_components_appear_and_reconcile_with_metric_counters() {
    use gimbal_repro::telemetry::Component;
    let trace = run_trace();
    let view = trace.view();
    for comp in Component::ALL {
        let in_stream = view.component(comp).len() as u64;
        if comp == Component::Rack {
            // Rack events only exist in multi-node runs; a single-node
            // testbed emitting one would be a routing bug.
            assert_eq!(in_stream, 0, "rack event in a single-node run");
            continue;
        }
        if comp == Component::Broker {
            // Broker events only exist in broker-armed runs; the shared run
            // keeps the broker off, so one here would be a routing bug. A
            // dedicated armed run covers the component below.
            assert_eq!(in_stream, 0, "broker event in a broker-off run");
            continue;
        }
        if comp == Component::Cores {
            // Cores events only exist when work stealing is armed; the
            // shared run keeps steal off, so one here would break the
            // scheduler's inertness guarantee. A dedicated steal-armed run
            // covers the component below.
            assert_eq!(in_stream, 0, "cores event in a steal-off run");
            continue;
        }
        assert!(in_stream > 0, "no {comp} events in a faulted Gimbal run");
        assert_eq!(
            trace.metrics.counter(comp.name()),
            in_stream,
            "metric counter diverged from the stream for {comp}"
        );
    }
}

/// Broker counterpart of the taxonomy check: a broker-armed run emits
/// Broker-component events (borrows, settlements) and the metric counter
/// reconciles exactly with the stream.
#[test]
fn broker_component_appears_and_reconciles_when_armed() {
    use gimbal_repro::telemetry::Component;
    use gimbal_repro::testbed::BrokerConfig;
    let per = CAP / 3;
    let mut workers = vec![WorkerSpec::new(
        "heavy",
        FioSpec::paper_default(1.0, 128 * 1024, 0, per),
    )];
    for i in 0..2u64 {
        let mut fio = FioSpec::paper_default(1.0, 4096, (i + 1) * per, per);
        fio.queue_depth = 1;
        fio.rate_limit = Some(1024.0 * 1024.0);
        workers.push(WorkerSpec::new("idle", fio));
    }
    let cfg = TestbedConfig {
        scheme: Scheme::Gimbal,
        precondition: Precondition::Clean,
        duration: SimDuration::from_millis(200),
        warmup: SimDuration::from_millis(50),
        broker: Some(BrokerConfig {
            capacity_bps: 64 * 1024 * 1024,
            burst_bytes: 256 * 1024,
            epoch: SimDuration::from_millis(5),
            ..BrokerConfig::default()
        }),
        trace: Some(TraceConfig { capacity: 1 << 20 }),
        ..TestbedConfig::default()
    };
    let res = Testbed::new(cfg, workers).run();
    let trace = res.trace.as_ref().expect("trace enabled");
    assert_eq!(trace.dropped_oldest, 0, "ring too small for conformance");
    let in_stream = trace.view().component(Component::Broker).len() as u64;
    assert!(in_stream > 0, "no Broker events in a broker-armed run");
    assert_eq!(
        trace.metrics.counter(Component::Broker.name()),
        in_stream,
        "broker metric counter diverged from the stream"
    );
}

/// Cores counterpart of the taxonomy check: a steal-armed run on a skewed
/// placement emits Cores-component events (quanta stolen, homes rebalanced)
/// and the metric counter reconciles exactly with the stream.
#[test]
fn cores_component_appears_and_reconciles_when_armed() {
    use gimbal_repro::cores::StealConfig;
    use gimbal_repro::telemetry::Component;
    let per = CAP / 2;
    // Both workers on SSD 0: its pipeline saturates home core 0 while
    // core 1 idles, so stealing is guaranteed to fire.
    let workers: Vec<WorkerSpec> = (0..2u64)
        .map(|i| WorkerSpec::new("hot", FioSpec::paper_default(1.0, 4096, i * per, per)).on_ssd(0))
        .collect();
    let cfg = TestbedConfig {
        scheme: Scheme::Gimbal,
        precondition: Precondition::Clean,
        num_ssds: 2,
        cores: 2,
        duration: SimDuration::from_millis(200),
        warmup: SimDuration::from_millis(50),
        steal: Some(StealConfig::default()),
        trace: Some(TraceConfig { capacity: 1 << 20 }),
        ..TestbedConfig::default()
    };
    let res = Testbed::new(cfg, workers).run();
    let trace = res.trace.as_ref().expect("trace enabled");
    assert_eq!(trace.dropped_oldest, 0, "ring too small for conformance");
    let in_stream = trace.view().component(Component::Cores).len() as u64;
    assert!(in_stream > 0, "no Cores events in a steal-armed run");
    assert_eq!(
        trace.metrics.counter(Component::Cores.name()),
        in_stream,
        "cores metric counter diverged from the stream"
    );
}

/// Satellite: the `below_min` fast-recovery edge of the write-cost ADMI
/// loop, observed purely through the public event stream. Buffered writes
/// decay the cost by δ per period down to parity; the moment the write EWMA
/// leaves the buffered band the cost converges to worst-case in midpoint
/// jumps.
#[test]
fn write_cost_steps_expose_the_below_min_recovery_edge() {
    let p = Params::default();
    let tracer = Rc::new(RefCell::new(Tracer::new(TraceConfig::default())));
    let handle = TraceHandle::attached(&tracer);
    let mut rate = RateController::new(p);
    let mut wc = WriteCostEstimator::new(&p);
    rate.attach_trace(handle.clone(), SsdId(0));
    wc.attach_trace(handle, SsdId(0));
    let mut t_ms = 0u64;
    let mut feed = |rate: &mut RateController, wc: &mut WriteCostEstimator, lat_us: u64| {
        t_ms += 1;
        let now = SimTime::from_millis(t_ms);
        rate.on_completion(now, IoType::Write, 4096, SimDuration::from_micros(lat_us));
        // The policy's wiring: the write monitor's below_min feeds the ADMI
        // step (§3.4).
        wc.on_write_completion(now, rate.monitor(IoType::Write).below_min());
    };
    // 20 periods of buffer-absorbed writes (60 µs), then 8 periods of
    // buffer-exceeded writes (900 µs).
    for _ in 0..200 {
        feed(&mut rate, &mut wc, 60);
    }
    for _ in 0..80 {
        feed(&mut rate, &mut wc, 900);
    }
    let trace = tracer.borrow_mut().finish();
    let view = trace.view();
    let steps = view.named("write_cost_step");
    assert!(steps.len() >= 20, "one step per elapsed period");
    let mut saw_floor = false;
    let mut saw_recovery = false;
    let mut last_cost = p.write_cost_worst;
    for e in steps.iter() {
        let EventKind::WriteCostStep {
            old_cost,
            new_cost,
            below_min,
        } = e.kind
        else {
            unreachable!()
        };
        assert!(
            (old_cost - last_cost).abs() < EPS,
            "cost stream tore: {e:?}"
        );
        let expect = if below_min {
            (old_cost - p.delta).max(1.0)
        } else {
            (old_cost + p.write_cost_worst) / 2.0
        };
        assert!((new_cost - expect).abs() < EPS, "ADMI step wrong: {e:?}");
        saw_floor |= below_min && (new_cost - 1.0).abs() < EPS;
        saw_recovery |= !below_min;
        last_cost = new_cost;
    }
    assert!(saw_floor, "buffered writes never reached cost parity (1.0)");
    assert!(saw_recovery, "latency rise never flipped below_min off");
    assert!(
        last_cost > 8.0,
        "recovery must converge near worst-case: {last_cost}"
    );
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON round-trip, via a minimal in-test JSON parser.
// ---------------------------------------------------------------------------

#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.skip_ws();
        assert_eq!(
            self.bytes.get(self.pos),
            Some(&b),
            "expected {:?} at byte {}",
            b as char,
            self.pos
        );
        self.pos += 1;
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        self.bytes[self.pos]
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        self.skip_ws();
        assert_eq!(
            &self.bytes[self.pos..self.pos + word.len()],
            word.as_bytes()
        );
        self.pos += word.len();
        v
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let b = self.bytes[self.pos];
            self.pos += 1;
            match b {
                b'"' => return out,
                b'\\' => {
                    let esc = self.bytes[self.pos];
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .expect("utf8 escape");
                            let code = u32::from_str_radix(hex, 16).expect("hex escape");
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => panic!("unknown escape \\{}", other as char),
                    }
                }
                b => out.push(b as char),
            }
        }
    }

    fn number(&mut self) -> Json {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
    }

    fn array(&mut self) -> Json {
        self.eat(b'[');
        let mut out = Vec::new();
        if self.peek() == b']' {
            self.pos += 1;
            return Json::Arr(out);
        }
        loop {
            out.push(self.value());
            match self.peek() {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Json::Arr(out);
                }
                other => panic!("expected , or ] got {:?}", other as char),
            }
        }
    }

    fn object(&mut self) -> Json {
        self.eat(b'{');
        let mut out = Vec::new();
        if self.peek() == b'}' {
            self.pos += 1;
            return Json::Obj(out);
        }
        loop {
            let key = self.string();
            self.eat(b':');
            out.push((key, self.value()));
            match self.peek() {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Json::Obj(out);
                }
                other => panic!("expected , or }} got {:?}", other as char),
            }
        }
    }
}

fn parse_json(s: &str) -> Json {
    let mut p = Parser::new(s);
    let v = p.value();
    p.skip_ws();
    assert_eq!(p.pos, p.bytes.len(), "trailing garbage after JSON value");
    v
}

/// The Chrome trace-event export parses as JSON and maps back onto the
/// recorded events one-to-one: same order, same timestamps, same pid/tid
/// attribution, sequence numbers intact.
#[test]
fn chrome_trace_round_trips_a_json_parse() {
    // A small, fully deterministic trace: the smooth-ramp controller drive.
    let tracer = Rc::new(RefCell::new(Tracer::new(TraceConfig::default())));
    let mut c = RateController::new(Params::default());
    c.attach_trace(TraceHandle::attached(&tracer), SsdId(3));
    for (i, lat) in (300..=1800).step_by(25).enumerate() {
        c.on_completion(
            SimTime::from_micros(100 * (i as u64 + 1)),
            IoType::Read,
            4096,
            SimDuration::from_micros(lat),
        );
        c.update_buckets(SimTime::from_micros(100 * (i as u64 + 1) + 50), 3.0);
    }
    let trace = tracer.borrow_mut().finish();
    assert!(!trace.events.is_empty());

    let doc = parse_json(&chrome_trace(&trace));
    let entries = match doc.get("traceEvents") {
        Some(Json::Arr(entries)) => entries,
        other => panic!("traceEvents array missing: {other:?}"),
    };
    let (meta, events): (Vec<&Json>, Vec<&Json>) = entries
        .iter()
        .partition(|e| e.get("ph").and_then(Json::as_str) == Some("M"));
    assert_eq!(meta.len(), 1, "one process_name entry for the single SSD");
    assert_eq!(
        meta[0]
            .get("args")
            .and_then(|a| a.get("name"))
            .and_then(Json::as_str),
        Some("ssd3")
    );
    assert_eq!(events.len(), trace.events.len(), "one entry per event");
    for (entry, recorded) in events.iter().zip(&trace.events) {
        let ph = entry.get("ph").and_then(Json::as_str).expect("ph");
        match recorded.kind {
            EventKind::RateUpdate { .. } | EventKind::BucketRefill { .. } => {
                assert_eq!(ph, "C", "counter events export as ph C: {entry:?}")
            }
            _ => assert_eq!(ph, "i", "instant events export as ph i: {entry:?}"),
        }
        assert_eq!(
            entry.get("pid").and_then(Json::as_num),
            Some(recorded.ssd.index() as f64),
            "pid is the SSD"
        );
        let ts = entry.get("ts").and_then(Json::as_num).expect("ts");
        let want_us = recorded.at.as_nanos() as f64 / 1000.0;
        assert!((ts - want_us).abs() < EPS, "ts {ts} != {want_us}");
        assert_eq!(
            entry
                .get("args")
                .and_then(|a| a.get("seq"))
                .and_then(Json::as_num),
            Some(recorded.seq as f64),
            "sequence number survives the round trip"
        );
        let cat = entry.get("cat").and_then(Json::as_str).expect("cat");
        assert_eq!(cat, recorded.component().name());
    }
}

/// Satellite: the four rack-level event kinds reconcile *exactly* against
/// the rack conservation-audit counters — every suspicion, reroute, node
/// death, and degraded-link crossing in the counters has its event in the
/// stream, and nothing was traced that the audit did not count.
#[test]
fn rack_events_reconcile_with_rack_audit_counters() {
    use gimbal_repro::rack::{RackConfig, RackTestbed};
    use gimbal_repro::telemetry::Component;

    let res = RackTestbed::new(RackConfig {
        faults: Some(FaultConfig {
            plan: FaultPlan::default()
                .with_node_death(1, ms(20))
                .with_node_degrade(
                    0,
                    FaultWindow::new(ms(30), ms(40)),
                    SimDuration::from_micros(50),
                ),
            retry: RetryConfig {
                base_timeout: SimDuration::from_millis(1),
                max_timeout: SimDuration::from_millis(8),
                max_retries: 5,
                suspect_after: 2,
            },
        }),
        trace: Some(TraceConfig { capacity: 1 << 20 }),
        duration: SimDuration::from_millis(60),
        warmup: SimDuration::from_millis(10),
        ..RackConfig::default()
    })
    .run();

    assert!(res.conservation_audit_holds());
    let trace = res.trace.as_ref().expect("tracing on");
    assert_eq!(
        trace.dropped_oldest, 0,
        "ring overflowed — counts below would be undercounts"
    );

    let count = |pred: &dyn Fn(&EventKind) -> bool| {
        trace.view().iter().filter(|e| pred(&e.kind)).count() as u64
    };
    assert_eq!(
        count(&|k| matches!(k, EventKind::NodeSuspected { .. })),
        res.rack.nodes_suspected,
        "suspicion events vs counter"
    );
    assert_eq!(
        count(&|k| matches!(k, EventKind::Rerouted { .. })),
        res.rack.reroutes,
        "reroute events vs counter"
    );
    assert_eq!(
        count(&|k| matches!(k, EventKind::NodeDead { .. })),
        1,
        "exactly one node died"
    );
    assert_eq!(
        count(&|k| matches!(k, EventKind::LinkDegraded { .. })),
        res.rack.link_degraded_crossings,
        "degraded-crossing events vs counter"
    );
    // Every rack event carries a node that exists in the rack, and the
    // stream reconciles with the component metric counter.
    let rack_events = trace.view().component(Component::Rack).len() as u64;
    assert!(rack_events > 0, "faulted rack run emitted no rack events");
    assert_eq!(trace.metrics.counter(Component::Rack.name()), rack_events);
    for e in trace.view().component(Component::Rack).iter() {
        let node = match e.kind {
            EventKind::NodeSuspected { node }
            | EventKind::NodeDead { node }
            | EventKind::LinkDegraded { node } => node,
            EventKind::Rerouted { to_node, .. } => to_node,
            _ => unreachable!("non-rack event under Component::Rack"),
        };
        assert!(node < 3, "event names node {node} outside the rack");
    }
}

// ---------------------------------------------------------------------------
// Batched-submission conformance (hot-path tentpole): coalescing same-tick
// command arrivals into one pipeline quantum must preserve per-IO
// Algorithm 1 accounting — congestion EWMA updates, DRR rounds, credit
// returns — *exactly*, for every batch size.
// ---------------------------------------------------------------------------

/// Fault-free mix for the batching tests (batching deliberately disengages
/// under fault plans, where replay dedup can turn an arrival into a resend
/// mid-batch). Six tenants on one SSD give the fabric plenty of same-tick
/// arrival collisions to coalesce.
fn batched_cfg(batch: u32, sanitize: bool) -> TestbedConfig {
    TestbedConfig {
        scheme: Scheme::Gimbal,
        precondition: Precondition::Fragmented,
        duration: SimDuration::from_millis(300),
        warmup: SimDuration::from_millis(75),
        seed: 23,
        batch,
        sanitize,
        trace: (!sanitize).then_some(TraceConfig { capacity: 1 << 21 }),
        ..TestbedConfig::default()
    }
}

/// Batch-of-1 is the unbatched engine, bit for bit: same stats digest, same
/// state-access journal — entry count included, so not a single pump or
/// scheduler decision moved.
#[test]
fn batch_of_one_is_bit_identical_to_unbatched() {
    let unbatched = Testbed::new(batched_cfg(1, true), mixed_workers(4, 2)).run();
    let default_cfg = TestbedConfig {
        batch: TestbedConfig::default().batch,
        ..batched_cfg(1, true)
    };
    let dflt = Testbed::new(default_cfg, mixed_workers(4, 2)).run();
    assert_eq!(unbatched.stats_digest(), dflt.stats_digest());
    assert_eq!(unbatched.access_digest(), dflt.access_digest());
    let ja = unbatched.access_journal.as_ref().expect("sanitized");
    let jb = dflt.access_journal.as_ref().expect("sanitized");
    assert_eq!(ja.len(), jb.len(), "journal shape changed at batch 1");
}

/// Stats and trace digests are stable across batch sizes: every per-IO
/// observation — congestion EWMA samples, rate updates, credit events,
/// device latencies — lands in the same order with the same values whether
/// the quantum held one command or thirty-two.
#[test]
fn batched_digests_are_stable_across_batch_sizes() {
    let base = Testbed::new(batched_cfg(1, false), mixed_workers(4, 2)).run();
    let base_trace = base.trace_digest().expect("trace enabled");
    for batch in [2u32, 8, 32] {
        let res = Testbed::new(batched_cfg(batch, false), mixed_workers(4, 2)).run();
        assert_eq!(
            res.stats_digest(),
            base.stats_digest(),
            "stats digest moved at batch {batch}"
        );
        assert_eq!(
            res.trace_digest().expect("trace enabled"),
            base_trace,
            "trace digest moved at batch {batch}"
        );
    }
}

/// The coalescing is real, not vacuous: a sanitized batch-32 run journals
/// strictly fewer pump quanta than batch-1 (each coalesced command skips an
/// intermediate scheduler decision + pump), while the stats stay identical.
#[test]
fn batching_coalesces_quanta_without_moving_stats() {
    let one = Testbed::new(batched_cfg(1, true), mixed_workers(4, 2)).run();
    let many = Testbed::new(batched_cfg(32, true), mixed_workers(4, 2)).run();
    assert_eq!(one.stats_digest(), many.stats_digest());
    let j1 = one.access_journal.as_ref().expect("sanitized").len();
    let j32 = many.access_journal.as_ref().expect("sanitized").len();
    assert!(
        j32 < j1,
        "batch-32 never coalesced a quantum (journal {j32} vs {j1} entries)"
    );
}

/// Algorithm 1 still holds *inside* a batched run: re-validate every
/// congestion-transition snapshot from a batch-32 trace with the same
/// branch arithmetic the unbatched conformance tests use, and re-check
/// credit-halving exactness and Congested-state rate monotonicity on the
/// batched stream.
#[test]
fn batched_run_still_conforms_to_algorithm_one() {
    let res = Testbed::new(batched_cfg(32, false), mixed_workers(4, 2)).run();
    let trace = res.trace.as_ref().expect("trace enabled");
    assert_eq!(trace.dropped_oldest, 0, "ring too small for conformance");
    let p = Params::default();
    let view = trace.view();
    let transitions = view.named("congestion_transition");
    assert!(
        !transitions.is_empty(),
        "no congestion activity at batch 32"
    );
    for e in transitions.iter() {
        check_transition_snapshot(e, &p);
    }
    for e in view.named("rate_update").iter() {
        let EventKind::RateUpdate {
            state,
            old_bps,
            new_bps,
            ..
        } = e.kind
        else {
            unreachable!()
        };
        if state == CongState::Congested {
            assert!(
                new_bps <= old_bps + EPS,
                "rate increased while Congested in a batched run: {e:?}"
            );
        }
    }
}
