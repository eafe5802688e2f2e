//! `jbofsim` — compose multi-tenant JBOF experiments from the command line.
//!
//! ```sh
//! cargo run --release --bin jbofsim -- \
//!     --scheme gimbal --precondition fragmented --duration-ms 2000 \
//!     --workers 8x4k-read,4x128k-write-qd8,2x4k-read-rate50
//! ```
//!
//! Worker specs are `COUNTxSIZE-TYPE[-qdN][-rateM]` where SIZE is like `4k`
//! or `128k`, TYPE is `read`, `write`, or a mixed ratio like `mix70` (70 %
//! reads), and `rateM` caps each worker at M MB/s. Workers are spread over
//! disjoint LBA regions and, when `--ssds` > 1, round-robin across SSDs.

use gimbal_repro::cores::{CoresStats, StealConfig};
use gimbal_repro::fabric::RetryConfig;
use gimbal_repro::rack::{RackConfig, RackTestbed};
use gimbal_repro::sim::{FaultPlan, FaultWindow, SimDuration, SimTime};
use gimbal_repro::telemetry::{export, TraceConfig};
use gimbal_repro::testbed::{
    cache_tier_wb, AdmissionPolicy, BrokerConfig, BrokerMode, FaultConfig, Precondition, Scheme,
    Testbed, TestbedConfig, WorkerSpec, WritePolicy,
};
use gimbal_repro::workload::FioSpec;
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
         \x20              [--batch N] [--scale TENANTS]\n\
         \x20              [--sanitize] --workers SPEC[,SPEC…]\n\
         \x20      rack mode: --rack-nodes N [--rack-ssds-per-node N]\n\
         \x20              [--rack-clients N] [--rack-qd N] [--rack-read-ratio F]\n\
         \x20              [--rack-fault none|node-death|gc-storm|partition]\n\
         \x20              [--rack-no-replicate] [--rack-gc-blind]\n\
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
         --scale runs the hot-path bench: TENANTS synthesized 4 KiB readers\n\
         \x20      spread round-robin over the SSDs, batching on, wall-clock\n\
         \x20      events/sec reported (--workers is ignored in this mode)\n\
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

fn parse_size(s: &str) -> Option<u64> {
    let s = s.to_ascii_lowercase();
    let (num, mult) = if let Some(n) = s.strip_suffix('k') {
        (n, 1024)
    } else if let Some(n) = s.strip_suffix('m') {
        (n, 1024 * 1024)
    } else {
        (s.as_str(), 1)
    };
    num.parse::<u64>().ok().map(|v| v * mult)
}

struct ParsedWorker {
    count: u32,
    io_bytes: u64,
    read_ratio: f64,
    qd: Option<u32>,
    rate: Option<f64>,
    zipf: bool,
    /// `(on_ms, off_ms)` burst cycle; phases are staggered evenly across
    /// the group's `count` workers so their ON windows interleave.
    burst: Option<(u64, u64)>,
    /// Pin the whole group to one SSD instead of round-robin placement —
    /// how the cores bench lands every hot tenant on one home core.
    ssd: Option<u32>,
    label: String,
}

fn parse_worker(spec: &str) -> Option<ParsedWorker> {
    let (count, rest) = spec.split_once('x')?;
    let count: u32 = count.parse().ok()?;
    let mut parts = rest.split('-');
    let io_bytes = parse_size(parts.next()?)?;
    let ty = parts.next()?;
    let read_ratio = match ty {
        "read" => 1.0,
        "write" => 0.0,
        t if t.starts_with("mix") => t[3..].parse::<f64>().ok()? / 100.0,
        _ => return None,
    };
    let mut qd = None;
    let mut rate = None;
    let mut zipf = false;
    let mut burst = None;
    let mut ssd = None;
    for p in parts {
        if let Some(n) = p.strip_prefix("ssd") {
            ssd = Some(n.parse().ok()?);
        } else if let Some(n) = p.strip_prefix("qd") {
            qd = Some(n.parse().ok()?);
        } else if let Some(n) = p.strip_prefix("rate") {
            rate = Some(n.parse::<f64>().ok()? * 1e6);
        } else if let Some(n) = p.strip_prefix("burst") {
            let (on, off) = n.split_once('x')?;
            let on: u64 = on.parse().ok()?;
            let off: u64 = off.parse().ok()?;
            if on == 0 || off == 0 {
                return None;
            }
            burst = Some((on, off));
        } else if p == "zipf" {
            zipf = true;
        } else {
            return None;
        }
    }
    Some(ParsedWorker {
        count,
        io_bytes,
        read_ratio,
        qd,
        rate,
        zipf,
        burst,
        ssd,
        label: spec.to_string(),
    })
}

/// The canonical mid-run fault plans the CLI can inject into a rack run.
/// Windows are fractions of the run so any `--duration-ms` works.
fn rack_fault_config(kind: &str, duration_ms: u64) -> Option<FaultConfig> {
    let at =
        |f: f64| SimTime::ZERO + SimDuration::from_micros((duration_ms as f64 * f * 1e3) as u64);
    let retry = RetryConfig {
        base_timeout: SimDuration::from_millis(1),
        max_timeout: SimDuration::from_millis(8),
        max_retries: 5,
        suspect_after: 2,
    };
    match kind {
        "none" => None,
        "node-death" => Some(FaultConfig {
            plan: FaultPlan::default().with_node_death(1, at(1.0 / 3.0)),
            retry,
        }),
        "gc-storm" => Some(FaultConfig {
            plan: FaultPlan::default().with_node_gc_storm(0, FaultWindow::new(at(0.25), at(0.75))),
            retry,
        }),
        "partition" => Some(FaultConfig {
            plan: FaultPlan::default()
                .with_node_partition(1, FaultWindow::new(at(1.0 / 3.0), at(0.45))),
            retry,
        }),
        other => {
            eprintln!("unknown rack fault {other}");
            usage()
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_rack(
    scheme: Scheme,
    nodes: u32,
    ssds_per_node: u32,
    clients: u32,
    qd: u32,
    read_ratio: f64,
    fault: &str,
    replicate: bool,
    gc_aware: bool,
    duration_ms: u64,
    warmup_ms: u64,
    seed: u64,
    sanitize: bool,
    steal: Option<StealConfig>,
) {
    let cfg = RackConfig {
        scheme,
        nodes,
        ssds_per_node,
        clients,
        queue_depth: qd,
        read_ratio,
        replicate,
        gc_aware_routing: gc_aware,
        duration: SimDuration::from_millis(duration_ms),
        warmup: SimDuration::from_millis(warmup_ms.min(duration_ms.saturating_sub(1))),
        seed,
        faults: rack_fault_config(fault, duration_ms),
        sanitize,
        steal,
        ..RackConfig::default()
    };
    eprintln!(
        "jbofsim rack: {} nodes x {} SSDs, {} clients qd {}, scheme {}, fault {}, {} ms",
        nodes,
        ssds_per_node,
        clients,
        qd,
        scheme.name(),
        fault,
        duration_ms
    );
    let res = if sanitize {
        let a = RackTestbed::new(cfg.clone()).run();
        let b = RackTestbed::new(cfg).run();
        let ja = a.access_journal.as_ref().expect("sanitizer was enabled");
        let jb = b.access_journal.as_ref().expect("sanitizer was enabled");
        match gimbal_repro::sim::first_divergence(ja, jb) {
            None if a.stats_digest() == b.stats_digest() => {
                eprintln!(
                    "sanitizer: double run identical — {} journal entries, digest {:#018x}",
                    ja.len(),
                    ja.digest()
                );
            }
            None => {
                eprintln!(
                    "sanitizer: stats digests diverged ({:#018x} vs {:#018x}) but the \
                     access journals agree — widen journal coverage",
                    a.stats_digest(),
                    b.stats_digest()
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
    } else {
        RackTestbed::new(cfg).run()
    };

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
}

/// Throughput-vs-cores sweep (the XBOF claim): for each listed core count
/// run the same workload twice — shared-nothing (steal off) and with the
/// core scheduler stealing — and report the curve. The headline is the
/// largest win across the sweep, i.e. the most skewed point.
fn run_cores_sweep(
    template: &TestbedConfig,
    workers: &[WorkerSpec],
    sweep: &[u32],
    steal_cfg: &StealConfig,
) {
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
        let stealing = run(Some(steal_cfg.clone()));
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

/// The `--scale` hot-path bench: `tenants` synthesized 4 KiB readers over
/// disjoint LBA regions, round-robin across the SSDs, command batching on.
/// Reports wall-clock events/sec for the whole simulation.
#[allow(clippy::too_many_arguments)]
fn run_scale(
    scheme: Scheme,
    tenants: u32,
    ssds: u32,
    cores: u32,
    duration_ms: u64,
    warmup_ms: u64,
    seed: u64,
    batch: u32,
) {
    let cap_blocks = 512 * 1024 * 1024 / 4096u64;
    let per_region = (cap_blocks / u64::from(tenants).max(1)).max(1);
    let workers: Vec<WorkerSpec> = (0..tenants)
        .map(|i| {
            let fio = FioSpec::paper_default(
                1.0,
                4096,
                u64::from(i) * per_region % cap_blocks,
                per_region,
            );
            WorkerSpec::new("scale", fio).on_ssd(i % ssds)
        })
        .collect();
    let cfg = TestbedConfig {
        scheme,
        num_ssds: ssds,
        cores,
        duration: SimDuration::from_millis(duration_ms),
        warmup: SimDuration::from_millis(warmup_ms.min(duration_ms.saturating_sub(1))),
        seed,
        batch,
        ..TestbedConfig::default()
    };
    eprintln!(
        "jbofsim scale: {} tenants over {} SSDs x {} cores, scheme {}, batch {}, {} ms",
        tenants,
        ssds,
        cores,
        scheme.name(),
        batch,
        duration_ms
    );
    let t0 = std::time::Instant::now();
    let res = Testbed::new(cfg, workers).run();
    let wall = t0.elapsed();
    let wall_ms = wall.as_secs_f64() * 1e3;
    let events_per_sec = res.events_processed as f64 / wall.as_secs_f64().max(1e-9);
    let total_ios: u64 = res.ssd_stats.iter().map(|s| s.reads + s.writes).sum();
    let total_mbps = res.aggregate_bps(|_| true) / 1e6;

    println!(
        "scale: {} events in {wall_ms:.0} ms = {:.2} M events/s, {} device IOs, {total_mbps:.0} MB/s",
        res.events_processed,
        events_per_sec / 1e6,
        total_ios
    );
}

fn main() {
    let mut scheme = Scheme::Gimbal;
    let mut pre = Precondition::Clean;
    let mut duration_ms = 2000u64;
    let mut warmup_ms = 500u64;
    let mut ssds = 1u32;
    let mut cores = 0u32; // 0 = one per SSD
    let mut seed = 42u64;
    let mut trace_out: Option<String> = None;
    let mut trace_chrome = true;
    let mut cache_mb = 0u64;
    let mut cache_policy = AdmissionPolicy::CongestionAware;
    let mut cache_write = WritePolicy::Through;
    let mut sanitize = false;
    let mut borrow = false;
    let mut borrow_strict = false;
    let mut borrow_mbps = 512u64;
    let mut borrow_epoch_ms = 20u64;
    let mut placement = false;
    let mut steal = false;
    let mut steal_rebalance_ms = 20u64;
    let mut cores_sweep: Vec<u32> = Vec::new();
    // `None` = default: 1 (off) for normal runs, 32 for `--scale`.
    let mut batch: Option<u32> = None;
    let mut scale_tenants = 0u32;
    let mut worker_specs: Vec<ParsedWorker> = Vec::new();
    let mut rack_nodes = 0u32;
    let mut rack_ssds_per_node = 2u32;
    let mut rack_clients = 4u32;
    let mut rack_qd = 4u32;
    let mut rack_read_ratio = 0.7f64;
    let mut rack_fault = "none".to_string();
    let mut rack_replicate = true;
    let mut rack_gc_aware = true;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| args.get(i + 1).unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--scheme" => {
                scheme = match need(i).as_str() {
                    "vanilla" => Scheme::Vanilla,
                    "reflex" => Scheme::Reflex,
                    "parda" => Scheme::Parda,
                    "flashfq" => Scheme::FlashFq,
                    "gimbal" => Scheme::Gimbal,
                    other => {
                        eprintln!("unknown scheme {other}");
                        usage()
                    }
                };
                i += 2;
            }
            "--precondition" => {
                pre = match need(i).as_str() {
                    "clean" => Precondition::Clean,
                    "fragmented" => Precondition::Fragmented,
                    other => {
                        eprintln!("unknown precondition {other}");
                        usage()
                    }
                };
                i += 2;
            }
            "--duration-ms" => {
                duration_ms = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--warmup-ms" => {
                warmup_ms = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--ssds" => {
                ssds = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--cores" => {
                cores = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--seed" => {
                seed = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--trace-out" => {
                trace_out = Some(need(i).clone());
                i += 2;
            }
            "--trace-format" => {
                trace_chrome = match need(i).as_str() {
                    "chrome" => true,
                    "jsonl" => false,
                    other => {
                        eprintln!("unknown trace format {other}");
                        usage()
                    }
                };
                i += 2;
            }
            "--cache-mb" => {
                cache_mb = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--cache-policy" => {
                cache_policy = match AdmissionPolicy::parse(need(i)) {
                    Some(p) => p,
                    None => {
                        eprintln!("unknown cache policy {}", need(i));
                        usage()
                    }
                };
                i += 2;
            }
            "--cache-write-policy" => {
                cache_write = match WritePolicy::parse(need(i)) {
                    Some(p) => p,
                    None => {
                        eprintln!("unknown cache write policy {}", need(i));
                        usage()
                    }
                };
                i += 2;
            }
            "--workers" => {
                for spec in need(i).split(',') {
                    match parse_worker(spec) {
                        Some(w) => worker_specs.push(w),
                        None => {
                            eprintln!("bad worker spec: {spec}");
                            usage();
                        }
                    }
                }
                i += 2;
            }
            "--sanitize" => {
                sanitize = true;
                i += 1;
            }
            "--borrow" => {
                borrow = true;
                i += 1;
            }
            "--borrow-strict" => {
                borrow_strict = true;
                i += 1;
            }
            "--borrow-mbps" => {
                borrow_mbps = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--borrow-epoch-ms" => {
                borrow_epoch_ms = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--placement" => {
                placement = true;
                i += 1;
            }
            "--steal" => {
                steal = true;
                i += 1;
            }
            "--steal-rebalance-ms" => {
                steal_rebalance_ms = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--batch" => {
                let n: u32 = need(i).parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    eprintln!("--batch must be >= 1");
                    usage();
                }
                batch = Some(n);
                i += 2;
            }
            "--scale" => {
                scale_tenants = need(i).parse().unwrap_or_else(|_| usage());
                if scale_tenants == 0 {
                    eprintln!("--scale needs at least one tenant");
                    usage();
                }
                i += 2;
            }
            "--cores-sweep" => {
                for k in need(i).split(',') {
                    match k.parse::<u32>() {
                        Ok(n) if n > 0 => cores_sweep.push(n),
                        _ => {
                            eprintln!("bad core count {k}");
                            usage();
                        }
                    }
                }
                i += 2;
            }
            "--rack-nodes" => {
                rack_nodes = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--rack-ssds-per-node" => {
                rack_ssds_per_node = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--rack-clients" => {
                rack_clients = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--rack-qd" => {
                rack_qd = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--rack-read-ratio" => {
                rack_read_ratio = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--rack-fault" => {
                rack_fault = need(i).clone();
                i += 2;
            }
            "--rack-no-replicate" => {
                rack_replicate = false;
                i += 1;
            }
            "--rack-gc-blind" => {
                rack_gc_aware = false;
                i += 1;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    let steal_cfg = StealConfig {
        rebalance_epoch: SimDuration::from_millis(steal_rebalance_ms),
        ..StealConfig::default()
    };
    if rack_nodes > 0 {
        run_rack(
            scheme,
            rack_nodes,
            rack_ssds_per_node,
            rack_clients,
            rack_qd,
            rack_read_ratio,
            &rack_fault,
            rack_replicate,
            rack_gc_aware,
            duration_ms,
            warmup_ms,
            seed,
            sanitize,
            steal.then(|| steal_cfg.clone()),
        );
        return;
    }
    if scale_tenants > 0 {
        run_scale(
            scheme,
            scale_tenants,
            ssds,
            if cores == 0 { ssds } else { cores },
            duration_ms,
            warmup_ms,
            seed,
            batch.unwrap_or(32),
        );
        return;
    }
    if worker_specs.is_empty() {
        eprintln!("no --workers given");
        usage();
    }

    let cap_blocks = 512 * 1024 * 1024 / 4096u64;
    let total: u32 = worker_specs.iter().map(|w| w.count).sum();
    let per_region = cap_blocks / u64::from(total).max(1);
    let mut workers = Vec::new();
    let mut idx = 0u64;
    for w in &worker_specs {
        for k in 0..w.count {
            let mut fio =
                FioSpec::paper_default(w.read_ratio, w.io_bytes, idx * per_region, per_region);
            if let Some(qd) = w.qd {
                fio.queue_depth = qd;
            }
            fio.rate_limit = w.rate;
            if let Some((on_ms, off_ms)) = w.burst {
                // Stagger phases evenly across the group so ON windows
                // interleave: at any instant some workers peak while the
                // rest idle — the mix inter-tenant borrowing is built for.
                let period_ns = (on_ms + off_ms) * 1_000_000;
                let phase_ns = u64::from(k) * period_ns / u64::from(w.count);
                fio = fio.with_burst(
                    SimDuration::from_millis(on_ms),
                    SimDuration::from_millis(off_ms),
                    SimDuration::from_nanos(phase_ns),
                );
            }
            if w.zipf {
                fio.read_pattern = gimbal_repro::workload::AccessPattern::Zipfian;
                fio.write_pattern = gimbal_repro::workload::AccessPattern::Zipfian;
            }
            workers.push(
                WorkerSpec::new(w.label.clone(), fio)
                    .on_ssd(w.ssd.unwrap_or((idx % u64::from(ssds)) as u32))
                    .active(SimTime::ZERO, None),
            );
            idx += 1;
        }
    }

    let broker = (borrow || borrow_strict || placement).then(|| {
        let mut bc = BrokerConfig {
            capacity_bps: borrow_mbps * 1024 * 1024,
            epoch: SimDuration::from_millis(borrow_epoch_ms),
            placement,
            ..BrokerConfig::default()
        };
        if borrow_strict {
            bc.mode = BrokerMode::Strict;
        }
        bc
    });

    let cfg = TestbedConfig {
        scheme,
        precondition: pre,
        num_ssds: ssds,
        cores: if cores == 0 { ssds } else { cores },
        duration: SimDuration::from_millis(duration_ms),
        warmup: SimDuration::from_millis(warmup_ms.min(duration_ms.saturating_sub(1))),
        seed,
        trace: trace_out.as_ref().map(|_| TraceConfig::default()),
        cache: cache_tier_wb(cache_mb, cache_policy, cache_write),
        sanitize,
        broker,
        batch: batch.unwrap_or(1),
        steal: steal.then(|| steal_cfg.clone()),
        ..TestbedConfig::default()
    };

    if !cores_sweep.is_empty() {
        run_cores_sweep(&cfg, &workers, &cores_sweep, &steal_cfg);
        return;
    }

    eprintln!(
        "jbofsim: {} workers, scheme {}, {:?} SSD ×{}, {} ms ({} ms warmup)",
        workers.len(),
        scheme.name(),
        pre,
        ssds,
        duration_ms,
        warmup_ms
    );
    let res = if sanitize {
        // Double run: same config, same seed. Any difference is a
        // determinism bug; the journal names where it started.
        let a = Testbed::new(cfg.clone(), workers.clone()).run();
        let b = Testbed::new(cfg, workers).run();
        let ja = a.access_journal.as_ref().expect("sanitizer was enabled");
        let jb = b.access_journal.as_ref().expect("sanitizer was enabled");
        match gimbal_repro::sim::first_divergence(ja, jb) {
            None if a.stats_digest() == b.stats_digest() => {
                eprintln!(
                    "sanitizer: double run identical — {} journal entries, digest {:#018x}",
                    ja.len(),
                    ja.digest()
                );
            }
            None => {
                eprintln!(
                    "sanitizer: stats digests diverged ({:#018x} vs {:#018x}) but the \
                     access journals agree — widen journal coverage",
                    a.stats_digest(),
                    b.stats_digest()
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
    } else {
        Testbed::new(cfg, workers).run()
    };

    // Group report by spec label.
    println!(
        "{:<28} {:>8} {:>12} {:>10} {:>10} {:>11}",
        "group", "workers", "MB/s total", "avg us", "p99 us", "p99.9 us"
    );
    for w in &worker_specs {
        let bw = res.aggregate_bps(|l| l == w.label) / 1e6;
        let [rd, wr] = res.group_latency(|l| l == w.label);
        let lat = if rd.count >= wr.count { rd } else { wr };
        println!(
            "{:<28} {:>8} {:>12.1} {:>10.0} {:>10.0} {:>11.0}",
            w.label,
            w.count,
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
    if !res.cache.is_empty() {
        let hits: u64 = res.cache.iter().map(|c| c.hits).sum();
        let fills: u64 = res.cache.iter().map(|c| c.fills).sum();
        let evict: u64 = res.cache.iter().map(|c| c.evictions).sum();
        println!(
            "cache ({cache_mb} MiB/ssd, {}): hit ratio {:.3}, {hits} hits, {fills} fills, {evict} evictions",
            cache_policy.name(),
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
    }
    println!("stats digest {:#018x}", res.stats_digest());

    if let Some(path) = trace_out {
        let trace = res.trace.as_ref().expect("trace was enabled");
        let write = if trace_chrome {
            export::write_chrome_trace(&path, trace)
        } else {
            export::write_jsonl(&path, trace)
        };
        match write {
            Ok(()) => eprintln!(
                "trace: {} events ({} dropped) -> {path} [{}]",
                trace.events.len(),
                trace.dropped_oldest,
                if trace_chrome { "chrome" } else { "jsonl" }
            ),
            Err(e) => {
                eprintln!("trace: failed to write {path}: {e}");
                exit(1);
            }
        }
    }
}
