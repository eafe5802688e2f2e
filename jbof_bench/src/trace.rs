//! The traced pass, never mixed with the end-to-end pass:
//!
//! 1. re-run the workload with the program's own switch
//!    `*Config::trace = Some(..)` and report the overhead against untraced
//!    runs of the same process;
//! 2. the *wrapped node* (`wrapped`): the workload's pipelines in a
//!    bench-owned loop, once with a span around every call into the switch,
//!    the policy and the device, once writing down the op stream it puts on
//!    every other layer;
//! 3. the layer drivers (`layers`) replaying that stream;
//! 4. the ledger: Σ layer ns/op × that layer's op count ÷ run host ns.

use crate::e2e::{self, min, Reps};
use crate::json::Json;
use crate::layers;
use crate::sim::Sim;
use crate::timing::{best_of, Recorder, SpanCosts, Timed, Timer};
use crate::workloads::{execute, plan, Length, Plan, Raw, Workload};
use crate::wrapped::{
    self, Pass, Wrapped, NEXT_SUBMISSION, ON_ARRIVAL, ON_COMMAND, ON_COMPLETION, POLL, POLL_INTO,
    SUBMIT,
};
use gimbal_fabric::{RdmaDelays, SsdId, TorSwitch};
use gimbal_ssd::SsdStats;
use gimbal_telemetry::RecordedTrace;
use std::time::Instant;

/// Where a `_ns` layer metric's op stream came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// A span around the real call in the wrapped node.
    Span,
    /// The wrapped node's recorded op stream (or the traced run's retained
    /// events), replayed call for call.
    Replayed,
    /// The workload's own generator with the workload's spec and seed.
    Generated,
    /// Shaped from the run's counters and the config; no recorded stream.
    /// Never enters a ledger.
    Modelled,
}

impl Source {
    pub fn name(self) -> &'static str {
        match self {
            Source::Span => "span",
            Source::Replayed => "replayed",
            Source::Generated => "generated",
            Source::Modelled => "modelled",
        }
    }
}

/// One ledger row: a layer's attributed host time in the end-to-end run.
pub struct LedgerRow {
    pub layer: &'static str,
    pub ns: f64,
}

pub struct Trace {
    pub workload: Workload,
    pub seed: u64,
    pub length: Length,
    pub sim: Sim,
    /// Host seconds of the untraced and traced repetitions.
    pub untraced_secs: Vec<f64>,
    pub traced_secs: Vec<f64>,
    pub span_overhead_ns: f64,
    /// Every per-layer metric that has a value on this workload (and the
    /// end-to-end metrics `BENCHMARK.json` lists per layer).
    pub metrics: Vec<(&'static str, f64)>,
    /// Where each timed metric's op stream came from.
    pub sources: Vec<(&'static str, Source)>,
    /// Empty off the `Testbed` engine.
    pub ledger: Vec<LedgerRow>,
    /// Lines printed under the ledger: what it leaves out and why.
    pub notes: Vec<String>,
    /// Host ns of the fastest untraced repetition: the ledger's denominator.
    pub run_host_ns: f64,
    pub span_file: std::path::PathBuf,
}

/// The traced pass's metric sink.
#[derive(Default)]
struct Out {
    metrics: Vec<(&'static str, f64)>,
    timed: Vec<(&'static str, Timed, Source)>,
}

impl Out {
    fn put(&mut self, name: &'static str, v: f64) {
        self.metrics.push((name, v));
    }

    /// A `_ns` metric: refused (left out) under 100 000 timed calls.
    fn put_ns(&mut self, name: &'static str, t: Timed, source: Source) {
        self.timed.push((name, t, source));
        if let Some(ns) = t.ns() {
            self.put(name, ns);
        }
    }

    /// A driver replaying the wrapped node's log: the fastest of `reps`.
    fn replayed(
        &mut self,
        name: &'static str,
        reps: usize,
        driver: impl FnMut() -> Timed,
    ) -> Timed {
        let t = best_of(reps, driver);
        self.put_ns(name, t, Source::Replayed);
        t
    }
}

fn sum_stats(stats: &[SsdStats]) -> (u64, u64, u64, f64) {
    let ios: u64 = stats.iter().map(|s| s.reads + s.writes).sum();
    let gc: u64 = stats.iter().map(|s| s.ftl.collections).sum();
    let stalls: u64 = stats.iter().map(|s| s.buffer_stalls).sum();
    let host: u64 = stats.iter().map(|s| s.ftl.host_slot_writes).sum();
    let gc_writes: u64 = stats.iter().map(|s| s.ftl.gc_slot_writes).sum();
    let wa = if host == 0 {
        1.0
    } else {
        (host + gc_writes) as f64 / host as f64
    };
    (ios, gc, stalls, wa)
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// A layer's cost in the ledger: its ns per call, 0 when refused.
fn cost(t: Timed) -> f64 {
    t.ns().unwrap_or(0.0)
}

/// Self time per call of span `i`: the fastest of the span passes.
fn span_self(passes: &[Recorder], i: usize, costs: SpanCosts) -> Timed {
    let mut all = passes.iter().map(|r| r.self_time(i, costs));
    let first = all.next().expect("at least one span pass");
    all.fold(first, Timed::faster)
}

/// Run the traced pass for one workload.
pub fn run(w: Workload, seed: u64, length: Length, reps: Reps) -> Result<Trace, String> {
    let started = Instant::now();
    let timer = Timer::calibrate();
    let base = plan(w, seed, length, false);
    let peaks = if w == Workload::MixedFrag {
        e2e::standalone_peaks(&base)
    } else {
        Vec::new()
    };
    // How often each driver and the span pass repeat (the fastest counts).
    let driver_reps = if length == Length::Quick { 1 } else { 3 };

    // (1) Untraced/traced pairs, alternating so drift hits both alike.
    let (mut untraced_secs, mut traced_secs) = (Vec::new(), Vec::new());
    let mut first: Option<(Raw, Sim)> = None;
    let mut traced: Option<Raw> = None;
    loop {
        for on in [false, true] {
            let p = plan(w, seed, length, on);
            let t = Instant::now();
            let raw = execute(p);
            let dt = t.elapsed().as_secs_f64();
            let sim = Sim::of(&raw);
            if let Some((_, s0)) = &first {
                if s0.digest != sim.digest {
                    return Err(format!(
                        "{}: traced and untraced stats digests differ ({:#018x} vs {:#018x})",
                        w.name(),
                        s0.digest,
                        sim.digest
                    ));
                }
            }
            if on {
                traced_secs.push(dt);
                traced.get_or_insert(raw);
            } else {
                untraced_secs.push(dt);
                if first.is_none() {
                    first = Some((raw, sim));
                }
            }
        }
        let done = match reps {
            Reps::Count(n) => untraced_secs.len() >= n.div_ceil(2),
            // Leave the rest of the budget to the wrapped node and drivers.
            Reps::Seconds(s) => {
                started.elapsed().as_secs_f64() + min(&untraced_secs) + min(&traced_secs) > 0.5 * s
            }
        };
        if done {
            break;
        }
    }
    let (raw, sim) = first.expect("one untraced repetition ran");
    let traced = traced.expect("one traced repetition ran");
    let run_host_ns = min(&untraced_secs) * 1e9;
    let recorded: Option<&RecordedTrace> = match &traced {
        Raw::Fio(r) => r.trace.as_ref(),
        Raw::Rack(r) => r.trace.as_ref(),
        // The KV engine has no trace switch.
        Raw::Kv(_) => None,
    };

    let mut out = Out::default();
    // The end-to-end metrics `BENCHMARK.json` lists under `per_layer`.
    for (name, v) in e2e::sim_metrics(w, &sim, e2e::futil_min(&sim, &peaks), length)? {
        if !crate::spec::end_to_end(name).is_some_and(|e| e.published) {
            out.put(name, v);
        }
    }

    let fabric_cfg = match &base {
        Plan::Fio(c, _) => c.fabric,
        Plan::Kv(c) => c.fabric,
        Plan::Rack(c) => c.fabric,
    };
    let read_bytes = match &base {
        Plan::Fio(_, ws) => ws[0].fio.io_bytes,
        Plan::Kv(_) => 4096,
        Plan::Rack(c) => c.io_bytes,
    };
    let delays = RdmaDelays::new(fabric_cfg);
    let unloaded_read_us = delays.unloaded_read_overhead(read_bytes).as_nanos() as f64 / 1e3;
    out.put("fabric.unloaded_read_us", unloaded_read_us);
    match &raw {
        Raw::Rack(r) => {
            out.put("fabric.retries", r.physical.retries as f64);
            out.put("fabric.timeouts", r.physical.timed_out as f64);
        }
        Raw::Fio(r) => {
            out.put("fabric.retries", r.faults.retries as f64);
            out.put("fabric.timeouts", r.faults.timed_out as f64);
        }
        Raw::Kv(_) => {}
    }

    // Telemetry: the events the traced run's ring kept, recorded again.
    let mut disabled_record = Timed::default();
    if let Some(t) = recorded {
        let times = layers::telemetry_record(&timer, &t.events, driver_reps);
        out.put_ns("telemetry.record_ns", times.record, Source::Replayed);
        out.put_ns(
            "telemetry.disabled_record_ns",
            times.disabled_record,
            Source::Replayed,
        );
        disabled_record = times.disabled_record;
        out.put(
            "telemetry.trace_overhead_pct",
            (min(&traced_secs) / min(&untraced_secs) - 1.0) * 100.0,
        );
        out.put("telemetry.events_recorded", t.total_recorded as f64);
        // Whole-run totals per component.
        out.put(
            "gimbal.cong_transitions",
            t.metrics.counter("congestion") as f64,
        );
        out.put("gimbal.credit_grants", t.metrics.counter("credit") as f64);
    }

    let ssd_stats: &[SsdStats] = match &raw {
        Raw::Fio(r) => &r.ssd_stats,
        Raw::Kv(r) => &r.ssd_stats,
        Raw::Rack(r) => &r.ssd_stats,
    };
    let (device_ios, gc, stalls, wa) = sum_stats(ssd_stats);
    out.put("ssd.write_amp", wa);
    out.put("ssd.gc_collections", gc as f64);
    out.put("ssd.buffer_stalls", stalls as f64);
    out.put("ssd.ios", device_ios as f64);

    let mut ledger = Vec::new();
    let mut notes = Vec::new();
    let mut span_doc = Json::Null;
    match (&base, &raw) {
        (Plan::Fio(cfg, workers), Raw::Fio(r)) => {
            let (clients, ssds) = (workers.len(), cfg.num_ssds as usize);

            // (2) The wrapped node: span passes, then the log pass.
            let passes = |pass: Pass| -> Vec<Wrapped> {
                (0..driver_reps)
                    .map(|_| wrapped::run(cfg, workers, pass))
                    .collect()
            };
            let mut span_passes = passes(Pass::Spans);
            let plain_passes = passes(Pass::Plain);
            let logged = wrapped::run(cfg, workers, Pass::Log);
            let same = |a: &Wrapped, b: &Wrapped| {
                (a.ios, a.events, a.stopped_at) == (b.ios, b.events, b.stopped_at)
            };
            if !same(&span_passes[0], &logged) || !same(&plain_passes[0], &logged) {
                return Err(format!("{}: the wrapped node's passes diverged", w.name()));
            }
            let wrapped_ios = logged.ios;
            let log = logged.log.as_ref().expect("the log pass keeps a log");
            let loop_secs =
                |ps: &[Wrapped]| min(&ps.iter().map(|p| p.loop_secs).collect::<Vec<_>>());
            let (spans_secs, plain_secs) = (loop_secs(&span_passes), loop_secs(&plain_passes));
            let recorders: Vec<Recorder> = span_passes
                .iter_mut()
                .map(|p| p.recorder.take().expect("a span pass keeps its spans"))
                .collect();
            // The recorder's cost per span, in place: what the span passes
            // took longer than the plain ones, over the spans recorded. The
            // clock reads inside a span's own interval come off that span;
            // the rest lands in its parent's.
            let empty_ns = wrapped::empty_span_ns();
            let per_span_ns =
                (spans_secs - plain_secs).max(0.0) * 1e9 / recorders[0].spans() as f64;
            let costs = SpanCosts {
                empty_ns: empty_ns.min(per_span_ns),
                footprint_ns: (per_span_ns - empty_ns).max(0.0),
            };
            let calls = |i: usize| recorders[0].aggregate(i).calls;
            let self_time = |i: usize| span_self(&recorders, i, costs);
            out.put_ns(
                "switch.on_command_self_ns",
                self_time(ON_COMMAND),
                Source::Span,
            );
            out.put_ns("switch.poll_self_ns", self_time(POLL), Source::Span);
            let polls_per_io = ratio(calls(POLL), wrapped_ios);
            out.put("switch.polls_per_io", polls_per_io);
            out.put_ns("gimbal.on_arrival_ns", self_time(ON_ARRIVAL), Source::Span);
            out.put_ns(
                "gimbal.next_submission_ns",
                self_time(NEXT_SUBMISSION),
                Source::Span,
            );
            out.put_ns(
                "gimbal.on_completion_ns",
                self_time(ON_COMPLETION),
                Source::Span,
            );
            out.put(
                "gimbal.submit_attempt_ratio",
                ratio(calls(SUBMIT), calls(NEXT_SUBMISSION)),
            );
            // Deferrals while the wrapped node served its commands: the
            // telemetry ring keeps only a run's last events and publishes
            // no whole-run count of this kind.
            out.put("gimbal.tenant_deferrals", log.deferrals as f64);
            out.put_ns("ssd.submit_ns", self_time(SUBMIT), Source::Span);
            out.put_ns("ssd.poll_ns", self_time(POLL_INTO), Source::Span);

            // (3) The layer drivers, replaying the wrapped node's log.
            let n = driver_reps;
            let queue_hold =
                out.replayed("sim.queue_hold_ns", n, || layers::queue_hold(&timer, log));
            let detmap = out.replayed("sim.detmap_cycle_ns", n, || {
                layers::detmap_cycle(&timer, log)
            });
            out.replayed("sim.arena_cycle_ns", n, || layers::arena_cycle(&timer, log));
            let hist_record = out.replayed("sim.hist_record_ns", n, || {
                layers::hist_record(&timer, log, clients, ssds)
            });
            let capsule_pair = out.replayed("fabric.capsule_pair_ns", n, || {
                layers::capsule_pair(&timer, log, &delays, clients, ssds)
            });
            let mut cpu_cost = cfg.scheme.cpu_cost(cfg.xeon);
            cpu_cost.submit += cfg.added_per_io_us * gimbal_nic::CYCLES_PER_US;
            let nic = out.replayed("nic.process_ns", n, || {
                layers::nic_process(&timer, log, cpu_cost, ssds)
            });
            let credit_client = out.replayed("gimbal.credit_client_ns", n, || {
                layers::credit_client(&timer, log, cfg, clients)
            });
            let fio_next = out.replayed("workload.fio_next_ns", n, || {
                layers::fio_next(&timer, log, cfg, workers)
            });

            // Device latency from the engine's own per-SSD summaries.
            let weighted = |op: usize, f: fn(&gimbal_sim::stats::LatencySummary) -> f64| {
                let (mut num, mut den) = (0.0, 0u64);
                for d in &r.device_latency {
                    num += f(&d[op]) * d[op].count as f64;
                    den += d[op].count;
                }
                (den > 0).then(|| num / den as f64 / 1e3)
            };
            let dev_read_mean = weighted(0, |s| s.mean_ns);
            for (name, v) in [
                ("ssd.dev_read_mean_us", dev_read_mean),
                ("ssd.dev_read_p99_us", weighted(0, |s| s.p99_ns as f64)),
                ("ssd.dev_write_mean_us", weighted(1, |s| s.mean_ns)),
            ] {
                if let Some(v) = v {
                    out.put(name, v);
                }
            }
            if let (Some(e2e_mean), Some(dev)) = (sim.read_mean_us(), dev_read_mean) {
                // Time parked in credits/DRR/tokens/broker. Cache hits never
                // reach the device, so the difference can go negative there.
                let wait = (e2e_mean - dev - unloaded_read_us).max(0.0);
                out.put("switch.wait_us", wait);
                out.put("switch.wait_share", wait / e2e_mean);
            }

            let mut cache_ns = 0.0;
            if let Some(cc) = cfg.cache.as_ref().filter(|c| c.enabled()) {
                let seen = [
                    logged.cache.iter().map(|c| c.hits).sum(),
                    logged.cache.iter().map(|c| c.misses).sum(),
                    logged.cache_acked,
                ];
                let mut times = layers::cache_paths(&timer, log, cc, cpu_cost, ssds, seen);
                for _ in 1..n {
                    let t = layers::cache_paths(&timer, log, cc, cpu_cost, ssds, seen);
                    times.read_hit = times.read_hit.faster(t.read_hit);
                    times.miss_fill = times.miss_fill.faster(t.miss_fill);
                    times.write_ack_flush = times.write_ack_flush.faster(t.write_ack_flush);
                }
                out.put_ns("cache.read_hit_ns", times.read_hit, Source::Replayed);
                out.put_ns("cache.miss_fill_ns", times.miss_fill, Source::Replayed);
                out.put_ns(
                    "cache.write_ack_flush_ns",
                    times.write_ack_flush,
                    Source::Replayed,
                );
                notes.push(format!(
                    "cache replay: hits / misses / DRAM acks {:?} against the wrapped pipelines' {seen:?}",
                    times.counters
                ));
                let sum =
                    |f: fn(&gimbal_cache::CacheStats) -> u64| r.cache.iter().map(f).sum::<u64>();
                let wb = |f: fn(&gimbal_cache::WriteBackStats) -> u64| {
                    r.write_back.iter().map(f).sum::<u64>()
                };
                out.put("cache.hit_ratio", r.cache_hit_ratio());
                out.put("cache.evictions", sum(|c| c.evictions) as f64);
                out.put("cache.flushed_lines", wb(|w| w.flushed_lines) as f64);
                out.put("cache.lost_lines", wb(|w| w.lost_lines) as f64);
                cache_ns = cost(times.read_hit) * sum(|c| c.hits) as f64
                    + cost(times.miss_fill) * sum(|c| c.misses) as f64
                    + cost(times.write_ack_flush)
                        * (wb(|w| w.acked) + wb(|w| w.passthrough)) as f64;
            }
            let mut broker_ns = 0.0;
            if let (Some(bc), Some(b), Some(seen)) = (&cfg.broker, &r.broker, &logged.broker) {
                let active: Vec<_> = (0..cfg.num_ssds)
                    .map(|s| (SsdId(s), wrapped::tenants_on(workers, s)))
                    .collect();
                let mut times = layers::broker_paths(&timer, log, bc, &active, seen);
                for _ in 1..n {
                    let t = layers::broker_paths(&timer, log, bc, &active, seen);
                    times.try_charge = times.try_charge.faster(t.try_charge);
                    times.settle_epoch = times.settle_epoch.faster(t.settle_epoch);
                }
                out.put_ns("broker.try_charge_ns", times.try_charge, Source::Replayed);
                out.put_ns(
                    "broker.settle_epoch_ns",
                    times.settle_epoch,
                    Source::Replayed,
                );
                // Every command that reached a device passed the gate once.
                let charges = device_ios + b.denials;
                out.put("broker.denial_ratio", ratio(b.denials, charges));
                out.put("broker.borrow_events", b.borrow_events as f64);
                out.put("broker.forgiven_share", ratio(b.forgiven, b.granted));
                broker_ns = cost(times.try_charge) * charges as f64
                    + cost(times.settle_epoch) * b.epochs as f64;
            }
            let mut cores_ns = 0.0;
            if let (Some(sc), Some(c)) = (&cfg.steal, &r.cores) {
                let t = out.replayed("cores.begin_end_ns", n, || {
                    layers::cores_begin_end(
                        &timer,
                        log,
                        cfg.cores as usize,
                        ssds,
                        sc.clone(),
                        &logged.cores,
                    )
                });
                let busy: u64 = c.per_core_busy_ns.iter().sum();
                let mean = busy as f64 / c.per_core_busy_ns.len().max(1) as f64;
                let max = c.per_core_busy_ns.iter().copied().max().unwrap_or(0) as f64;
                out.put("cores.steals", c.steals as f64);
                out.put("cores.stolen_busy_share", ratio(c.stolen_busy_ns, busy));
                out.put(
                    "cores.busy_imbalance",
                    if mean > 0.0 { max / mean } else { 1.0 },
                );
                // Brackets per command as the wrapped loop made them.
                cores_ns = cost(t) * ratio(t.calls, wrapped_ios) * r.faults.submitted as f64;
            }

            // (4) The ledger. Op counts come from the end-to-end run's
            // public results; calls per command from what the wrapped node
            // did. Calls nested inside a spanned call stay in its row.
            let cmds = r.faults.submitted as f64;
            let served = (r.faults.completed_ok + r.faults.completed_err) as f64;
            let per_io = |i: usize| ratio(calls(i), wrapped_ios);
            let total = |i: usize, count: f64| cost(self_time(i)) * count;
            let polls = served * polls_per_io;
            let switch_ns =
                (total(ON_COMMAND, cmds) + total(POLL, polls) - cache_ns - broker_ns).max(0.0);
            let gimbal_ns = total(ON_ARRIVAL, served * per_io(ON_ARRIVAL))
                + total(NEXT_SUBMISSION, served * per_io(NEXT_SUBMISSION))
                + total(ON_COMPLETION, served * per_io(ON_COMPLETION))
                + cost(credit_client) * served;
            let ssd_ns = total(SUBMIT, device_ios as f64) + total(POLL_INTO, polls);
            // One device-latency sample per IO an SSD served, one end-to-end
            // sample per completion inside the measured window.
            let hist_samples = served - r.faults.cache_served as f64 + sim.ops() as f64;
            let sim_ns =
                cost(queue_hold) * r.events_processed as f64 + cost(hist_record) * hist_samples;
            let fabric_ns = cost(capsule_pair) * served;
            // One disabled record site per completion carrying a credit.
            let telemetry_ns = cost(disabled_record) * served;
            let workload_ns = cost(fio_next) * cmds;
            let rows = [
                ("sim", sim_ns),
                ("fabric", fabric_ns),
                ("switch", switch_ns),
                ("gimbal", gimbal_ns),
                ("ssd", ssd_ns),
                ("cache", cache_ns),
                ("broker", broker_ns),
                ("cores", cores_ns),
                ("telemetry", telemetry_ns),
                ("workload", workload_ns),
            ];
            let attributed: f64 = rows.iter().map(|(_, v)| v).sum();
            ledger = rows
                .into_iter()
                .map(|(layer, ns)| LedgerRow { layer, ns })
                .collect();
            // What no driver or span measured: the engine's own glue.
            ledger.push(LedgerRow {
                layer: "testbed",
                ns: (run_host_ns - attributed).max(0.0),
            });
            // Calls the pipelines make inside spanned calls are measured but
            // already paid for in the caller's row.
            let share = |ns: f64| format!("{:.1} %", 100.0 * ns / run_host_ns);
            notes.push(format!(
                "nested, not added: nic.process {} (a charge per arrival and per completion, inside switch); \
                 sim.detmap_cycle {} (the pipeline's, the scheduler's and the SSD's in-flight maps, a cycle each per device IO, inside switch/gimbal/ssd); \
                 sim.arena_cycle 0.0 % (no fault-free Testbed run allocates from an arena)",
                share(cost(nic) * (cmds + served)),
                share(cost(detmap) * 3.0 * device_ios as f64),
            ));
            notes.push(format!(
                "span recorder, in place: {:.1} ns inside each span + {:.1} ns in its parent ({:.3} s with spans against {:.3} s without, {} spans)",
                costs.empty_ns,
                costs.footprint_ns,
                spans_secs,
                plain_secs,
                recorders[0].spans()
            ));
            notes.push(format!(
                "wrapped node: {wrapped_ios} commands, {} events, stopped at {} simulated; mean {:.0} pending events, {:.0} commands in flight",
                logged.events,
                logged.stopped_at,
                log.queue_population(),
                log.inflight_population()
            ));
            out.put("testbed.events", r.events_processed as f64);
            out.put(
                "testbed.events_per_op",
                ratio(r.events_processed, sim.ops()),
            );
            out.put(
                "testbed.host_ns_per_event",
                run_host_ns / r.events_processed.max(1) as f64,
            );
            out.put("testbed.ledger_attributed_share", attributed / run_host_ns);
            span_doc = Json::obj(vec![
                ("commands", Json::Num(wrapped_ios as f64)),
                ("events", Json::Num(logged.events as f64)),
                ("span_passes", Json::Num(recorders.len() as f64)),
                ("plain_passes_loop_secs", Json::Num(plain_secs)),
                ("span_passes_loop_secs", Json::Num(spans_secs)),
                ("span_empty_ns", Json::Num(costs.empty_ns)),
                ("span_footprint_ns", Json::Num(costs.footprint_ns)),
                ("queue_population", Json::Num(log.queue_population())),
                ("inflight_population", Json::Num(log.inflight_population())),
                ("first_pass", recorders[0].to_json()),
            ]);
        }
        (Plan::Kv(cfg), Raw::Kv(r)) => {
            out.put_ns(
                "workload.ycsb_next_ns",
                best_of(driver_reps, || {
                    layers::ycsb_next(&timer, cfg.mix, cfg.records_per_instance, seed)
                }),
                Source::Generated,
            );
            let lsm = layers::lsm_begin_op(&timer, cfg);
            out.put_ns("lsm-kv.begin_op_ns", lsm.begin_op, Source::Generated);
            let cap = cfg.ssd.logical_capacity / cfg.ssd.logical_page_bytes;
            out.put_ns(
                "blobstore.plan_read_ns",
                best_of(driver_reps, || {
                    layers::plan_read(
                        &timer,
                        cfg.backends() as usize,
                        cap,
                        lsm.files * u64::from(cfg.instances),
                        lsm.file_blocks,
                        1,
                        seed,
                    )
                }),
                Source::Generated,
            );
            let counters = |f: fn(&gimbal_lsm_kv::LsmStats) -> u64| {
                r.instances.iter().map(|i| f(&i.lsm)).sum::<u64>()
            };
            let gets: u64 = r.instances.iter().map(|i| i.read_latency.count).sum();
            let user_bytes: u64 = r
                .instances
                .iter()
                .map(|i| i.write_latency.count * cfg.lsm.value_bytes)
                .sum();
            // LSM counters are whole-run; latencies count the measured
            // window, so scale the window's gets/bytes up to the run.
            let whole = cfg.duration.as_secs_f64() / (cfg.duration - cfg.warmup).as_secs_f64();
            out.put(
                "lsm-kv.probe_reads_per_get",
                counters(|s| s.probe_reads) as f64 / (gets as f64 * whole).max(1.0),
            );
            out.put(
                "lsm-kv.bg_write_bytes_per_user_byte",
                counters(|s| s.background_write_bytes) as f64
                    / (user_bytes as f64 * whole).max(1.0),
            );
            out.put("lsm-kv.write_stalls", counters(|s| s.write_stalls) as f64);
        }
        (Plan::Rack(cfg), Raw::Rack(r)) => {
            out.put_ns(
                "blobstore.plan_read_ns",
                best_of(driver_reps, || {
                    layers::plan_read(
                        &timer,
                        cfg.backends() as usize,
                        cfg.ssd.logical_capacity / cfg.ssd.logical_page_bytes,
                        u64::from(cfg.clients),
                        cfg.file_blocks,
                        cfg.io_blocks(),
                        seed,
                    )
                }),
                Source::Generated,
            );
            let node_bytes: Vec<u64> = r
                .tor_bytes_down
                .iter()
                .zip(&r.tor_bytes_up)
                .map(|(d, u)| d + u)
                .collect();
            out.put_ns(
                "fabric.tor_hop_pair_ns",
                best_of(driver_reps, || {
                    let tor = TorSwitch::new(cfg.tor, cfg.nodes as usize);
                    layers::tor_hop_pair(
                        &timer,
                        tor,
                        &node_bytes,
                        cfg.read_ratio,
                        cfg.io_bytes,
                        seed,
                    )
                }),
                Source::Modelled,
            );
            out.put("rack.reroutes", r.rack.reroutes as f64);
            out.put("rack.nodes_suspected", r.rack.nodes_suspected as f64);
            out.put(
                "rack.degraded_ack_share",
                ratio(
                    r.rack.acked_degraded,
                    r.rack.acked_ok + r.rack.acked_degraded,
                ),
            );
            let tor_bytes: u64 = node_bytes.iter().sum();
            out.put("rack.tor_bytes_per_op", ratio(tor_bytes, r.rack.issued));
        }
        _ => unreachable!("a plan runs on its own engine"),
    }

    // Spans stay in memory until here: written once, at exit.
    let span_file = crate::report::out_dir()?.join(format!("trace-{}.json", w.name()));
    let timed = out.timed.iter().map(|(name, t, source)| {
        Json::obj(vec![
            ("metric", Json::str(*name)),
            ("source", Json::str(source.name())),
            ("calls", Json::Num(t.calls as f64)),
            ("total_ns", Json::Num(t.total_ns.round())),
        ])
    });
    let doc = Json::obj(vec![
        ("workload", Json::str(w.name())),
        ("seed", Json::Num(seed as f64)),
        ("span_overhead_ns", Json::Num(timer.overhead_ns)),
        ("timed_metrics", Json::Arr(timed.collect())),
        ("wrapped_node", span_doc),
    ]);
    std::fs::write(&span_file, doc.pretty())
        .map_err(|e| format!("write {}: {e}", span_file.display()))?;

    Ok(Trace {
        workload: w,
        seed,
        length,
        sim,
        untraced_secs,
        traced_secs,
        span_overhead_ns: timer.overhead_ns,
        metrics: out.metrics,
        sources: out.timed.iter().map(|(n, _, s)| (*n, *s)).collect(),
        ledger,
        notes,
        run_host_ns,
        span_file,
    })
}
