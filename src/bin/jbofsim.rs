//! `jbofsim` — compose multi-tenant JBOF experiments from the command line.
//!
//! ```sh
//! cargo run --release --bin jbofsim -- \
//!     --scheme gimbal --precondition fragmented --duration-ms 2000 \
//!     --workers 8x4k-read,4x128k-write-qd8,2x4k-read-rate50
//! ```
//!
//! Worker specs are `COUNTxSIZE-TYPE[-qdN][-rateM]…` as
//! [`gimbal_repro::testbed::parse_workers`] reads them: SIZE is like `4k` or
//! `128k`, TYPE is `read`, `write`, or a mixed ratio like `mix70` (70 %
//! reads), and `rateM` caps each worker at M MB/s. Workers are spread over
//! disjoint LBA regions and, when `--ssds` > 1, round-robin across SSDs.
//!
//! Every flag is parsed once, straight into the config its run executes
//! ([`TestbedConfig`] or [`RackConfig`]); a flag the chosen run would not
//! read is a usage error ([`Mode::reads`] is the contract).

use gimbal_repro::cores::{CoresStats, StealConfig};
use gimbal_repro::fabric::RetryConfig;
use gimbal_repro::rack::{RackConfig, RackTestbed};
use gimbal_repro::sim::{AccessJournal, FaultPlan, FaultWindow, SimDuration, SimTime};
use gimbal_repro::telemetry::{export, RecordedTrace, TraceConfig};
use gimbal_repro::testbed::{
    cache_tier_wb, check_run, parse_workers, AdmissionPolicy, BrokerConfig, BrokerMode,
    FaultConfig, Precondition, Scheme, Testbed, TestbedConfig, WorkerSpec, WritePolicy,
};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: jbofsim [--scheme vanilla|reflex|parda|flashfq|gimbal]\n\
         \x20              [--precondition clean|fragmented]\n\
         \x20              [--duration-ms N] [--warmup-ms N] [--ssds N] [--cores N]\n\
         \x20              [--seed N] [--trace-out FILE] [--trace-format chrome|jsonl]\n\
         \x20              [--cache-mb N] [--cache-policy always|congestion|never]\n\
         \x20              [--cache-write-policy through|back]\n\
         \x20              [--borrow] [--borrow-strict] [--borrow-mbps N]\n\
         \x20              [--borrow-epoch-ms N] [--placement]\n\
         \x20              [--steal] [--steal-rebalance-ms N] [--cores-sweep K[,K…]]\n\
         \x20              [--batch N] [--sanitize] --workers SPEC[,SPEC…]\n\
         \x20      rack mode: --rack-nodes N [--rack-ssds-per-node N]\n\
         \x20              [--rack-clients N] [--rack-qd N] [--rack-read-ratio F]\n\
         \x20              [--rack-fault none|node-death|gc-storm|partition]\n\
         \x20              [--rack-no-replicate] [--rack-gc-blind]\n\
         \n\
         Each run reads only its own flags; any other flag is a usage error:\n\
         \x20      fio run (the default): every flag except --rack-*\n\
         \x20      --cores-sweep: the fio flags except --cores, --steal, --sanitize,\n\
         \x20          --trace-out and --trace-format (the sweep sets cores and\n\
         \x20          stealing itself)\n\
         \x20      --rack-nodes: --rack-*, --scheme, --precondition, --duration-ms,\n\
         \x20          --warmup-ms, --seed, --sanitize, --steal, --steal-rebalance-ms,\n\
         \x20          --trace-out, --trace-format, --borrow, --borrow-strict,\n\
         \x20          --borrow-mbps and --borrow-epoch-ms\n\
         \n\
         SPEC = COUNTxSIZE-TYPE[-qdN][-rateM][-zipf][-burstAxB][-ssdN]   e.g.\n\
         \x20      8x4k-read, 4x128k-write-qd8, 2x4k-mix70-rate50 (70% reads,\n\
         \x20      50 MB/s cap per worker), 8x4k-read-zipf (Zipf-skewed\n\
         \x20      addresses), 4x4k-read-burst20x60 (20 ms on, 60 ms off,\n\
         \x20      phases auto-staggered across the group's workers);\n\
         \x20      -ssdN pins the whole group to SSD N (skewed placements\n\
         \x20      for the core-stealing bench) instead of round-robin\n\
         \n\
         --borrow enables the inter-tenant token broker (borrowing on);\n\
         \x20      --borrow-strict runs it with borrowing off (per-tenant\n\
         \x20      buckets only — the ablation baseline); --borrow-mbps sets\n\
         \x20      the brokered per-SSD capacity (default 512 MiB/s);\n\
         \x20      --borrow-epoch-ms sets the settlement epoch (default 20;\n\
         \x20      pick one co-prime with burst periods to avoid phase lock);\n\
         \x20      --placement adds Serifos-style tenant migration at epochs\n\
         --steal shares the reactor cores across SSD pipelines (gimbal-cores):\n\
         \x20      an idle core executes poll quanta for a saturated\n\
         \x20      neighbor's pipeline through the deterministic steal ring;\n\
         \x20      --steal-rebalance-ms sets the home-rebalance epoch\n\
         \x20      (default 20, 0 disables rebalance)\n\
         --cores-sweep runs the workload once per listed core count, with\n\
         \x20      stealing off and on, and reports the throughput-vs-cores\n\
         \x20      curve (the XBOF claim)\n\
         --cache-mb enables a NIC-DRAM cache of N MiB per SSD pipeline (0 = off);\n\
         \x20      --cache-policy picks the fill admission law (default congestion);\n\
         \x20      --cache-write-policy back acks writes from DRAM and drains\n\
         \x20      them to flash via the deterministic flusher (default through)\n\
         --batch coalesces up to N same-instant command arrivals per SSD into\n\
         \x20      one pipeline quantum (default 1 = off; digests are stable\n\
         \x20      across batch sizes — see tests/trace_conformance.rs)\n\
         --rack-nodes switches to the rack testbed: N JBOF nodes behind a\n\
         \x20      deterministic ToR with GC/failure-aware routing; --rack-fault\n\
         \x20      injects a canonical mid-run fault (node-death kills node 1,\n\
         \x20      gc-storm storms node 0, partition isolates node 1 briefly)\n\
         --sanitize runs the experiment twice with the state-access journal\n\
         \x20      enabled and localizes any divergence to its first tick\n\
         --trace-out enables structured telemetry and writes the trace to FILE:\n\
         \x20      chrome (default) loads in Perfetto (ui.perfetto.dev), jsonl is\n\
         \x20      one event per line for grep/jq"
    );
    exit(2);
}

/// Which run a command line selects: `--rack-nodes`, else `--cores-sweep`,
/// else a fio run.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    Fio,
    CoresSweep,
    Rack,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Fio => "fio",
            Mode::CoresSweep => "--cores-sweep",
            Mode::Rack => "rack",
        }
    }

    /// Whether a run of this mode reads `flag`. The sweep sets cores and
    /// stealing itself; the rack engine has no migration hook
    /// (`--placement`), cache, batching or fio workers.
    fn reads(self, flag: &str) -> bool {
        const RACK_READS: &str = "--scheme --precondition --duration-ms --warmup-ms --seed \
            --steal --steal-rebalance-ms --borrow --borrow-strict --borrow-mbps --borrow-epoch-ms";
        let rack = flag.starts_with("--rack-");
        let observed = matches!(flag, "--sanitize" | "--trace-out" | "--trace-format");
        match self {
            Mode::Fio => !rack,
            Mode::CoresSweep => !rack && !observed && !matches!(flag, "--steal" | "--cores"),
            Mode::Rack => rack || observed || RACK_READS.split_whitespace().any(|f| f == flag),
        }
    }
}

/// Where a run's telemetry goes: `--trace-out FILE` in `--trace-format`.
#[derive(Debug)]
struct TraceOut {
    path: String,
    chrome: bool,
}

/// One command line, parsed into the config its run executes.
#[derive(Debug)]
enum Run {
    Fio(TestbedConfig, Vec<WorkerSpec>, Option<TraceOut>),
    /// The config's `steal` is the sweep's steal-on setting.
    CoresSweep(TestbedConfig, Vec<WorkerSpec>, Vec<u32>),
    /// The config, the `--rack-fault` kind and the trace output.
    Rack(RackConfig, String, Option<TraceOut>),
}

/// A numeric flag value; a malformed one is a usage error.
fn num<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| String::new())
}

/// Parse a command line. An `Err` is a usage error: its message (empty for
/// `--help` or a malformed number) goes before the usage text.
fn parse(args: &[String]) -> Result<Run, String> {
    // `cores: 0` until the end: one core per SSD unless `--cores` says so.
    let mut cfg = TestbedConfig {
        cores: 0,
        ..TestbedConfig::default()
    };
    let mut rack = RackConfig::default();
    let (mut duration_ms, mut warmup_ms) = (2000u64, 500u64);
    let (mut cache_mb, mut cache_policy) = (0u64, AdmissionPolicy::CongestionAware);
    let mut cache_write = WritePolicy::Through;
    // The broker's defaults are the CLI's: 512 MiB/s per SSD, 20 ms epochs.
    let (mut broker, mut brokered) = (BrokerConfig::default(), false);
    let (mut steal, mut stealing) = (StealConfig::default(), false);
    let (mut trace_out, mut trace_chrome) = (None, true);
    let mut workers: Vec<&str> = Vec::new();
    let mut sweep = Vec::new();
    let mut fault = "none";
    let mut seen = Vec::new();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().map(String::as_str).ok_or_else(String::new);
        match flag.as_str() {
            "--scheme" => {
                cfg.scheme = match value()? {
                    "vanilla" => Scheme::Vanilla,
                    "reflex" => Scheme::Reflex,
                    "parda" => Scheme::Parda,
                    "flashfq" => Scheme::FlashFq,
                    "gimbal" => Scheme::Gimbal,
                    other => return Err(format!("unknown scheme {other}")),
                }
            }
            "--precondition" => {
                cfg.precondition = match value()? {
                    "clean" => Precondition::Clean,
                    "fragmented" => Precondition::Fragmented,
                    other => return Err(format!("unknown precondition {other}")),
                }
            }
            "--duration-ms" => duration_ms = num(value()?)?,
            "--warmup-ms" => warmup_ms = num(value()?)?,
            "--ssds" => match num(value()?)? {
                0 => return Err("--ssds must be >= 1".into()),
                n => cfg.num_ssds = n,
            },
            "--cores" => cfg.cores = num(value()?)?,
            "--seed" => cfg.seed = num(value()?)?,
            "--trace-out" => trace_out = Some(value()?.to_string()),
            "--trace-format" => {
                trace_chrome = match value()? {
                    "chrome" => true,
                    "jsonl" => false,
                    other => return Err(format!("unknown trace format {other}")),
                }
            }
            "--cache-mb" => cache_mb = num(value()?)?,
            "--cache-policy" => {
                let v = value()?;
                cache_policy =
                    AdmissionPolicy::parse(v).ok_or_else(|| format!("unknown cache policy {v}"))?;
            }
            "--cache-write-policy" => {
                let v = value()?;
                cache_write = WritePolicy::parse(v)
                    .ok_or_else(|| format!("unknown cache write policy {v}"))?;
            }
            "--workers" => workers.push(value()?),
            "--sanitize" => cfg.sanitize = true,
            "--borrow" => brokered = true,
            "--borrow-strict" => (brokered, broker.mode) = (true, BrokerMode::Strict),
            "--borrow-mbps" => broker.capacity_bps = num::<u64>(value()?)? * 1024 * 1024,
            "--borrow-epoch-ms" => broker.epoch = SimDuration::from_millis(num(value()?)?),
            "--placement" => (brokered, broker.placement) = (true, true),
            "--steal" => stealing = true,
            "--steal-rebalance-ms" => {
                steal.rebalance_epoch = SimDuration::from_millis(num(value()?)?);
            }
            "--batch" => match num(value()?)? {
                0 => return Err("--batch must be >= 1".into()),
                n => cfg.batch = n,
            },
            "--cores-sweep" => {
                for k in value()?.split(',') {
                    match k.parse::<u32>() {
                        Ok(n) if n > 0 => sweep.push(n),
                        _ => return Err(format!("bad core count {k}")),
                    }
                }
            }
            "--rack-nodes" => match num(value()?)? {
                0 => return Err("--rack-nodes needs at least one node".into()),
                n => rack.nodes = n,
            },
            "--rack-ssds-per-node" => rack.ssds_per_node = num(value()?)?,
            "--rack-clients" => rack.clients = num(value()?)?,
            "--rack-qd" => rack.queue_depth = num(value()?)?,
            "--rack-read-ratio" => rack.read_ratio = num(value()?)?,
            "--rack-fault" => fault = value()?,
            "--rack-no-replicate" => rack.replicate = false,
            "--rack-gc-blind" => rack.gc_aware_routing = false,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
        seen.push(flag.as_str());
    }

    let given = |f: &str| seen.contains(&f);
    let mode = if given("--rack-nodes") {
        Mode::Rack
    } else if given("--cores-sweep") {
        Mode::CoresSweep
    } else {
        Mode::Fio
    };
    if let Some(flag) = seen.iter().find(|f| !mode.reads(f)) {
        return Err(format!("{flag} is not read by {} runs", mode.name()));
    }
    let duration = SimDuration::from_millis(duration_ms);
    let warmup = SimDuration::from_millis(warmup_ms.min(duration_ms.saturating_sub(1)));
    let trace = trace_out.map(|path| TraceOut {
        path,
        chrome: trace_chrome,
    });
    let trace_cfg = trace.as_ref().map(|_| TraceConfig::default());
    let broker = brokered.then_some(broker);
    if mode == Mode::Rack {
        let cfg = RackConfig {
            scheme: cfg.scheme,
            precondition: cfg.precondition,
            seed: cfg.seed,
            sanitize: cfg.sanitize,
            duration,
            warmup,
            faults: rack_fault_config(fault, duration_ms)?,
            trace: trace_cfg,
            broker,
            steal: stealing.then_some(steal),
            ..rack
        };
        cfg.check()?;
        return Ok(Run::Rack(cfg, fault.to_string(), trace));
    }

    cfg.duration = duration;
    cfg.warmup = warmup;
    cfg.cache = cache_tier_wb(cache_mb, cache_policy, cache_write);
    cfg.broker = broker;
    if cfg.cores == 0 {
        cfg.cores = cfg.num_ssds;
    }
    cfg.check()?;
    if workers.is_empty() {
        return Err("no --workers given".into());
    }
    let workers = parse_workers(&workers.join(","), cfg.num_ssds)?;
    if mode == Mode::CoresSweep {
        cfg.steal = Some(steal);
        return Ok(Run::CoresSweep(cfg, workers, sweep));
    }
    cfg.steal = stealing.then_some(steal);
    cfg.trace = trace_cfg;
    Ok(Run::Fio(cfg, workers, trace))
}

/// The canonical mid-run fault plans the CLI can inject into a rack run.
/// Windows are fractions of the run so any `--duration-ms` works.
fn rack_fault_config(kind: &str, duration_ms: u64) -> Result<Option<FaultConfig>, String> {
    let at =
        |f: f64| SimTime::ZERO + SimDuration::from_micros((duration_ms as f64 * f * 1e3) as u64);
    let plan = match kind {
        "none" => return Ok(None),
        "node-death" => FaultPlan::default().with_node_death(1, at(1.0 / 3.0)),
        "gc-storm" => {
            FaultPlan::default().with_node_gc_storm(0, FaultWindow::new(at(0.25), at(0.75)))
        }
        "partition" => {
            FaultPlan::default().with_node_partition(1, FaultWindow::new(at(1.0 / 3.0), at(0.45)))
        }
        other => return Err(format!("unknown rack fault {other}")),
    };
    let retry = RetryConfig {
        base_timeout: SimDuration::from_millis(1),
        max_timeout: SimDuration::from_millis(8),
        max_retries: 5,
        suspect_after: 2,
    };
    Ok(Some(FaultConfig { plan, retry }))
}

/// Whole milliseconds of a duration, as the banners print them.
fn ms(d: SimDuration) -> u64 {
    d.as_micros() / 1000
}

/// Run once, or under `--sanitize` twice with the same config and seed:
/// any difference is a determinism bug, and the access journal names where
/// it started; `identity` gives a run's access journal and stats digest. A
/// divergence prints its report and exits 1; otherwise the first run's
/// result is returned.
fn run_sanitized<R>(
    sanitize: bool,
    run: impl Fn() -> R,
    identity: impl Fn(&R) -> (Option<&AccessJournal>, u64),
) -> R {
    let a = run();
    if !sanitize {
        return a;
    }
    let b = run();
    let ((ja, da), (jb, db)) = (identity(&a), identity(&b));
    let ja = ja.expect("sanitizer was enabled");
    let jb = jb.expect("sanitizer was enabled");
    match gimbal_repro::sim::first_divergence(ja, jb) {
        None if da == db => {
            eprintln!(
                "sanitizer: double run identical — {} journal entries, digest {:#018x}",
                ja.len(),
                ja.digest()
            );
        }
        None => {
            eprintln!(
                "sanitizer: stats digests diverged ({da:#018x} vs {db:#018x}) but the \
                 access journals agree — widen journal coverage"
            );
            exit(1);
        }
        Some(r) => {
            eprintln!("sanitizer: DIVERGENCE — {r}");
            println!("{}", gimbal_repro::sim::journal::report_json(&r));
            exit(1);
        }
    }
    a
}

/// Write a run's recorded trace to `--trace-out` in its `--trace-format`.
fn write_trace(out: &TraceOut, trace: Option<&RecordedTrace>) {
    let trace = trace.expect("trace was enabled");
    let path = &out.path;
    let written = if out.chrome {
        export::write_chrome_trace(path, trace)
    } else {
        export::write_jsonl(path, trace)
    };
    match written {
        Ok(()) => eprintln!(
            "trace: {} events ({} dropped) -> {path} [{}]",
            trace.events.len(),
            trace.dropped_oldest,
            if out.chrome { "chrome" } else { "jsonl" }
        ),
        Err(e) => {
            eprintln!("trace: failed to write {path}: {e}");
            exit(1);
        }
    }
}

fn run_rack(cfg: RackConfig, fault: &str, trace: Option<TraceOut>) {
    eprintln!(
        "jbofsim rack: {} nodes x {} SSDs, {} clients qd {}, scheme {}, fault {}, {} ms",
        cfg.nodes,
        cfg.ssds_per_node,
        cfg.clients,
        cfg.queue_depth,
        cfg.scheme.name(),
        fault,
        ms(cfg.duration)
    );
    let res = run_sanitized(
        cfg.sanitize,
        || RackTestbed::new(cfg.clone()).run(),
        |r| (r.access_journal.as_ref(), r.stats_digest()),
    );

    println!(
        "rack: {:.0} IOPS, read mean {:.0} us p99 {:.0} us",
        res.iops(),
        res.mean_read_latency_us(),
        res.p99_read_latency_us()
    );
    let r = &res.rack;
    println!(
        "logical: {} issued = {} ok + {} degraded + {} typed-error + {} in-flight",
        r.issued, r.acked_ok, r.acked_degraded, r.failed_typed, r.in_flight_at_end
    );
    println!(
        "events: {} processed, {:.2} per logical op",
        res.events_processed,
        res.events_processed as f64 / r.issued.max(1) as f64
    );
    println!(
        "ladder: {} timeouts, {} retries, {} suspicions, {} reroutes, {} cmd / {} cpl drops at ToR",
        res.physical.timed_out,
        res.physical.retries,
        r.nodes_suspected,
        r.reroutes,
        r.tor_cmd_drops,
        r.tor_cpl_drops
    );
    for n in 0..res.tor_bytes_down.len() {
        println!(
            "node{n}: {:.1} MB down, {:.1} MB up",
            res.tor_bytes_down[n] as f64 / 1e6,
            res.tor_bytes_up[n] as f64 / 1e6
        );
    }
    if !res.conservation_audit_holds() {
        eprintln!(
            "rack conservation audit FAILED: {:?} / {:?}",
            res.physical, r
        );
        exit(1);
    }
    println!("conservation audit: ok (physical and logical ledgers balance)");
    println!("stats digest {:#018x}", res.stats_digest());
    if let Some(out) = &trace {
        write_trace(out, res.trace.as_ref());
    }
}

/// Throughput-vs-cores sweep (the XBOF claim): for each listed core count
/// run the same workload twice — shared-nothing (steal off) and with the
/// core scheduler stealing under `template.steal` — and report the curve.
/// The headline is the largest win across the sweep, i.e. the most skewed
/// point.
fn run_cores_sweep(template: &TestbedConfig, workers: &[WorkerSpec], sweep: &[u32]) {
    let mut points: Vec<(u32, f64, f64, CoresStats)> = Vec::new();
    for &k in sweep {
        let run = |steal: Option<StealConfig>| {
            let cfg = TestbedConfig {
                cores: k,
                steal,
                ..template.clone()
            };
            Testbed::new(cfg, workers.to_vec()).run()
        };
        let pinned = run(None);
        let stealing = run(template.steal.clone());
        points.push((
            k,
            pinned.aggregate_bps(|_| true) / 1e6,
            stealing.aggregate_bps(|_| true) / 1e6,
            stealing.cores.clone().expect("steal-on run collects stats"),
        ));
    }
    let win_pct = |base: f64, stolen: f64| {
        if base > 0.0 {
            (stolen / base - 1.0) * 100.0
        } else {
            0.0
        }
    };
    let headline = points
        .iter()
        .map(|(_, b, s, _)| win_pct(*b, *s))
        .fold(f64::NEG_INFINITY, f64::max);

    println!(
        "{:<6} {:>16} {:>12} {:>8} {:>8} {:>12}",
        "cores", "pinned MB/s", "steal MB/s", "win %", "steals", "stolen ms"
    );
    for (k, b, s, st) in &points {
        println!(
            "{k:<6} {b:>16.1} {s:>12.1} {:>8.1} {:>8} {:>12.1}",
            win_pct(*b, *s),
            st.steals,
            st.stolen_busy_ns as f64 / 1e6
        );
    }
    println!("best steal win across the sweep: {headline:.1}%");
}

fn run_fio(cfg: TestbedConfig, workers: Vec<WorkerSpec>, trace: Option<TraceOut>) {
    eprintln!(
        "jbofsim: {} workers, scheme {}, {:?} SSD ×{}, {} ms ({} ms warmup)",
        workers.len(),
        cfg.scheme.name(),
        cfg.precondition,
        cfg.num_ssds,
        ms(cfg.duration),
        ms(cfg.warmup)
    );
    let res = run_sanitized(
        cfg.sanitize,
        || Testbed::new(cfg.clone(), workers.clone()).run(),
        |r| (r.access_journal.as_ref(), r.stats_digest()),
    );

    // Group report by spec label: each spec's workers are consecutive.
    println!(
        "{:<28} {:>8} {:>12} {:>10} {:>10} {:>11}",
        "group", "workers", "MB/s total", "avg us", "p99 us", "p99.9 us"
    );
    for group in workers.chunk_by(|a, b| a.label == b.label) {
        let label = &group[0].label;
        let bw = res.aggregate_bps(|l| l == label) / 1e6;
        let [rd, wr] = res.group_latency(|l| l == label);
        let lat = if rd.count >= wr.count { rd } else { wr };
        println!(
            "{:<28} {:>8} {:>12.1} {:>10.0} {:>10.0} {:>11.0}",
            label,
            group.len(),
            bw,
            lat.mean_us(),
            lat.p99_us(),
            lat.p999_us()
        );
    }
    for (i, s) in res.ssd_stats.iter().enumerate() {
        println!(
            "ssd{i}: {} reads, {} writes, WA {:.2}, buffer stalls {}",
            s.reads,
            s.writes,
            s.write_amplification(),
            s.buffer_stalls
        );
    }
    if let Some(c) = &cfg.cache {
        let hits: u64 = res.cache.iter().map(|c| c.hits).sum();
        let fills: u64 = res.cache.iter().map(|c| c.fills).sum();
        let evict: u64 = res.cache.iter().map(|c| c.evictions).sum();
        println!(
            "cache ({} MiB/ssd, {}): hit ratio {:.3}, {hits} hits, {fills} fills, {evict} evictions",
            c.capacity_bytes / (1024 * 1024),
            c.policy.name(),
            res.cache_hit_ratio(),
        );
    }
    if !res.write_back.is_empty() {
        let acked: u64 = res.write_back.iter().map(|w| w.acked).sum();
        let flushed: u64 = res.write_back.iter().map(|w| w.flushed_lines).sum();
        let lost: u64 = res.write_back.iter().map(|w| w.lost_lines).sum();
        let dirty: u64 = res.write_back.iter().map(|w| w.dirty_lines).sum();
        println!(
            "write-back: {acked} acks from DRAM, {flushed} lines flushed, {dirty} dirty at end, {lost} lost"
        );
        // The crash-consistency oracle replays every journal; it panics on
        // a violation.
        let reports = check_run(&res);
        let events: usize = reports.iter().map(|r| r.events).sum();
        let bytes: usize = res.journals.iter().map(|j| j.encoded_bytes()).sum();
        let markers: u32 = reports.iter().map(|r| r.loss_markers).sum();
        println!(
            "oracle: {events} journal events replayed ({bytes} bytes encoded), {markers} loss markers"
        );
    }
    println!("stats digest {:#018x}", res.stats_digest());
    if let Some(out) = &trace {
        write_trace(out, res.trace.as_ref());
    }
}

fn main() {
    #[expect(
        clippy::disallowed_methods,
        reason = "a CLI reads its arguments once; the run sees only the parsed configuration"
    )]
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("{msg}");
            }
            usage()
        }
        Ok(Run::Fio(cfg, workers, trace)) => run_fio(cfg, workers, trace),
        Ok(Run::CoresSweep(cfg, workers, sweep)) => run_cores_sweep(&cfg, &workers, &sweep),
        Ok(Run::Rack(cfg, fault, trace)) => run_rack(cfg, &fault, trace),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    fn parse_line(line: &str) -> Result<Run, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    fn parsed(line: &str) -> Run {
        parse_line(line).unwrap_or_else(|e| panic!("`{line}` failed to parse: {e}"))
    }

    /// Field-by-field equality through the derived `Debug` of the configs.
    fn same<T: Debug>(got: &T, want: &T) {
        assert_eq!(format!("{got:#?}"), format!("{want:#?}"));
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn rack_faults(plan: FaultPlan) -> Option<FaultConfig> {
        let retry = RetryConfig {
            base_timeout: ms(1),
            max_timeout: ms(8),
            max_retries: 5,
            suspect_after: 2,
        };
        Some(FaultConfig { plan, retry })
    }

    #[test]
    fn check_script_commands_parse_to_their_configs() {
        let line = "--workers 1000x4k-read --ssds 8 --batch 32 --duration-ms 200 \
                    --warmup-ms 50 --seed 42";
        let Run::Fio(cfg, workers, None) = parsed(line) else {
            panic!("not an untraced fio run")
        };
        let want = TestbedConfig {
            num_ssds: 8,
            cores: 8,
            duration: ms(200),
            warmup: ms(50),
            seed: 42,
            batch: 32,
            ..TestbedConfig::default()
        };
        same(&cfg, &want);
        assert_eq!(workers.len(), 1000);
        assert_eq!((workers[9].ssd, workers[9].fio.region_start), (1, 9 * 131));

        let line = "--scheme gimbal --duration-ms 100 --warmup-ms 20 --seed 42 \
                    --sanitize --workers 2x4k-read,1x4k-write";
        let Run::Fio(cfg, workers, None) = parsed(line) else {
            panic!("not an untraced fio run")
        };
        let want = TestbedConfig {
            duration: ms(100),
            warmup: ms(20),
            seed: 42,
            sanitize: true,
            ..TestbedConfig::default()
        };
        same(&cfg, &want);
        same(&workers, &parse_workers("2x4k-read,1x4k-write", 1).unwrap());

        let at = |us| SimTime::ZERO + SimDuration::from_micros(us);
        for (fault, plan) in [
            (
                "node-death",
                FaultPlan::default().with_node_death(1, at(33_333)),
            ),
            (
                "partition",
                FaultPlan::default()
                    .with_node_partition(1, FaultWindow::new(at(33_333), at(45_000))),
            ),
        ] {
            let line = format!(
                "--rack-nodes 2 --rack-ssds-per-node 2 --rack-fault {fault} \
                 --duration-ms 100 --warmup-ms 20 --seed 42 --sanitize"
            );
            let Run::Rack(cfg, kind, None) = parsed(&line) else {
                panic!("not an untraced rack run")
            };
            let want = RackConfig {
                nodes: 2,
                ssds_per_node: 2,
                duration: ms(100),
                warmup: ms(20),
                seed: 42,
                sanitize: true,
                faults: rack_faults(plan),
                ..RackConfig::default()
            };
            same(&cfg, &want);
            assert_eq!(kind, fault);
        }

        for (format, chrome) in [("chrome", true), ("jsonl", false)] {
            let line = format!(
                "--ssds 2 --cores 1 --cache-mb 4 --cache-write-policy back --borrow --steal \
                 --duration-ms 100 --warmup-ms 20 --seed 42 --workers 2x4k-read,1x4k-write \
                 --trace-out t.{format} --trace-format {format}"
            );
            let Run::Fio(cfg, workers, trace) = parsed(&line) else {
                panic!("not a fio run")
            };
            let want = TestbedConfig {
                num_ssds: 2,
                cores: 1,
                duration: ms(100),
                warmup: ms(20),
                seed: 42,
                trace: Some(TraceConfig::default()),
                cache: cache_tier_wb(4, AdmissionPolicy::CongestionAware, WritePolicy::Back),
                broker: Some(BrokerConfig::default()),
                steal: Some(StealConfig::default()),
                ..TestbedConfig::default()
            };
            same(&cfg, &want);
            same(&workers, &parse_workers("2x4k-read,1x4k-write", 2).unwrap());
            let path = format!("t.{format}");
            same(&trace, &Some(TraceOut { path, chrome }));
        }

        let line = "--precondition fragmented --cache-mb 16 --cache-policy always \
                    --cache-write-policy back --duration-ms 100 --warmup-ms 20 --seed 42 \
                    --workers 2x4k-read-zipf,4x4k-write-zipf";
        let Run::Fio(cfg, workers, None) = parsed(line) else {
            panic!("not an untraced fio run")
        };
        let want = TestbedConfig {
            precondition: Precondition::Fragmented,
            duration: ms(100),
            warmup: ms(20),
            seed: 42,
            cache: cache_tier_wb(16, AdmissionPolicy::Always, WritePolicy::Back),
            ..TestbedConfig::default()
        };
        same(&cfg, &want);
        same(
            &workers,
            &parse_workers("2x4k-read-zipf,4x4k-write-zipf", 1).unwrap(),
        );

        let line = "--rack-nodes 2 --duration-ms 50 --warmup-ms 10 --seed 42 --trace-out r.json";
        let Run::Rack(cfg, _, trace) = parsed(line) else {
            panic!("not a rack run")
        };
        assert!(cfg.trace.is_some());
        same(
            &trace,
            &Some(TraceOut {
                path: "r.json".into(),
                chrome: true,
            }),
        );
        assert!(parse_line("--rack-nodes 2 --cache-mb 4").is_err());
    }

    /// One valid value per flag (`None` for a switch).
    const FLAGS: [(&str, Option<&str>); 31] = [
        ("--scheme", Some("parda")),
        ("--precondition", Some("fragmented")),
        ("--duration-ms", Some("100")),
        ("--warmup-ms", Some("10")),
        ("--ssds", Some("2")),
        ("--cores", Some("1")),
        ("--seed", Some("7")),
        ("--trace-out", Some("t.json")),
        ("--trace-format", Some("jsonl")),
        ("--cache-mb", Some("4")),
        ("--cache-policy", Some("always")),
        ("--cache-write-policy", Some("back")),
        ("--borrow", None),
        ("--borrow-strict", None),
        ("--borrow-mbps", Some("64")),
        ("--borrow-epoch-ms", Some("5")),
        ("--placement", None),
        ("--steal", None),
        ("--steal-rebalance-ms", Some("5")),
        ("--cores-sweep", Some("1,2")),
        ("--batch", Some("4")),
        ("--sanitize", None),
        ("--workers", Some("1x4k-read")),
        ("--rack-nodes", Some("3")),
        ("--rack-ssds-per-node", Some("1")),
        ("--rack-clients", Some("2")),
        ("--rack-qd", Some("2")),
        ("--rack-read-ratio", Some("0.5")),
        ("--rack-fault", Some("partition")),
        ("--rack-no-replicate", None),
        ("--rack-gc-blind", None),
    ];

    /// Every cell of the flag table: each flag added to a minimal command
    /// of each run either parses into that run or is a usage error naming
    /// the flag. Flags that select a run of higher precedence (which then
    /// judges the base command's own flags) are skipped.
    #[test]
    fn each_run_reads_exactly_its_flags() {
        let rack_rejects = [
            "--ssds",
            "--cores",
            "--cache-mb",
            "--cache-policy",
            "--cache-write-policy",
            "--placement",
            "--batch",
            "--workers",
            "--cores-sweep",
        ];
        let observed = ["--sanitize", "--trace-out", "--trace-format"];
        let table: [(&str, &str, Vec<&str>, &[&str]); 3] = [
            (
                "--workers 1x4k-read",
                "fio",
                vec![],
                &["--cores-sweep", "--rack-nodes"],
            ),
            (
                "--cores-sweep 1 --workers 1x4k-read",
                "--cores-sweep",
                [&observed[..], &["--steal", "--cores"]].concat(),
                &["--rack-nodes"],
            ),
            ("--rack-nodes 2", "rack", vec![], &[]),
        ];
        for (base, mode, rejects, selectors) in &table {
            let want = std::mem::discriminant(&parsed(base));
            for (flag, value) in FLAGS {
                if selectors.contains(&flag) {
                    continue;
                }
                let line = format!("{base} {flag} {}", value.unwrap_or(""));
                let rejected = if *mode == "rack" {
                    rack_rejects.contains(&flag)
                } else {
                    flag.starts_with("--rack-") || rejects.contains(&flag)
                };
                match parse_line(&line) {
                    Ok(run) if !rejected => {
                        assert_eq!(std::mem::discriminant(&run), want, "`{line}` switched runs");
                    }
                    Err(msg) if rejected => {
                        assert_eq!(msg, format!("{flag} is not read by {mode} runs"));
                    }
                    other => panic!("`{line}`: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn rack_runs_take_precondition_trace_and_broker() {
        let line = "--rack-nodes 2 --precondition fragmented --trace-out r.jsonl \
                    --trace-format jsonl --borrow-strict --borrow-mbps 64 --borrow-epoch-ms 5 \
                    --steal --steal-rebalance-ms 0";
        let Run::Rack(cfg, _, trace) = parsed(line) else {
            panic!("not a rack run")
        };
        assert_eq!(cfg.precondition, Precondition::Fragmented);
        same(&cfg.trace, &Some(TraceConfig::default()));
        same(
            &trace,
            &Some(TraceOut {
                path: "r.jsonl".into(),
                chrome: false,
            }),
        );
        let broker = BrokerConfig {
            mode: BrokerMode::Strict,
            capacity_bps: 64 * 1024 * 1024,
            epoch: ms(5),
            ..BrokerConfig::default()
        };
        same(&cfg.broker, &Some(broker));
        let steal = StealConfig {
            rebalance_epoch: SimDuration::ZERO,
            ..StealConfig::default()
        };
        same(&cfg.steal, &Some(steal));
    }

    #[test]
    fn usage_errors_carry_their_message() {
        for (line, msg) in [
            ("--frob", "unknown flag --frob"),
            ("--scale 1000", "unknown flag --scale"),
            ("--batch 0 --workers 1x4k-read", "--batch must be >= 1"),
            ("--duration-ms 100", "no --workers given"),
            ("--workers 4x4k-foo", "bad worker spec: 4x4k-foo"),
            (
                "--ssds 2 --workers 1x4k-read-ssd2",
                "bad worker spec: 1x4k-read-ssd2",
            ),
            ("--ssds 0 --workers 1x4k-read", "--ssds must be >= 1"),
            (
                "--rack-nodes 2 --rack-fault bogus",
                "unknown rack fault bogus",
            ),
            ("--workers 1x4k-read --seed x", ""),
            ("--workers", ""),
            ("--help", ""),
        ] {
            assert_eq!(parse_line(line).err().as_deref(), Some(msg), "`{line}`");
        }
    }

    /// Out-of-range values that pass flag parsing fail the config's
    /// `check` and become usage errors instead of panics in `validate`.
    #[test]
    fn zero_duration_is_a_usage_error() {
        assert_eq!(
            parse_line("--workers 1x4k-read --duration-ms 0").err(),
            Some("duration 0ns must be longer than warmup 0ns".into())
        );
    }

    #[test]
    fn rack_read_ratio_above_one_is_a_usage_error() {
        assert_eq!(
            parse_line("--rack-nodes 2 --rack-read-ratio 1.5").err(),
            Some("read_ratio 1.5 out of [0, 1]".into())
        );
    }
}
