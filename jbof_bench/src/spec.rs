//! The benchmark's metric tables: names, units, directions, bounds, and
//! — for every per-layer metric — which end-to-end metric it should move
//! on which workload (on every other workload the prediction is *no
//! change*). `BENCHMARK.json` mirrors these tables; `tests` keeps the two
//! in step.

use crate::json::Json;
use crate::workloads::Workload;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which clock a metric is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Simulated: what the modelled JBOF delivers. Repeats exactly per seed.
    Sim,
    /// Host: what the simulator costs to run. Subject to sandbox noise.
    Host,
}

/// How much worse a metric may read before it is a regression, when both
/// runs used the same seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// A share of the baseline value.
    Rel(f64),
    /// An absolute difference.
    Abs(f64),
    /// A share of the baseline or an absolute difference, whichever is larger.
    RelOrAbs(f64, f64),
}

impl Bound {
    /// The tolerance in the metric's own unit around the baseline value `a`.
    pub fn around(self, a: f64) -> f64 {
        match self {
            Bound::Rel(r) => r * a.abs(),
            Bound::Abs(x) => x,
            Bound::RelOrAbs(r, x) => (r * a.abs()).max(x),
        }
    }
}

/// Where an end-to-end metric has a meaning; elsewhere it is omitted, never
/// reported as 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum On {
    All,
    Only(&'static [Workload]),
}

impl On {
    pub fn includes(self, w: Workload) -> bool {
        match self {
            On::All => true,
            On::Only(ws) => ws.contains(&w),
        }
    }
}

/// An end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// ISSUE.md's bound: what `compare` applies between two runs of the
    /// same seed (simulated metrics must then be *equal*; the bound judges
    /// a deliberate model change).
    pub bound: Bound,
    /// Share of the baseline by which the metric may differ between runs of
    /// *different* seeds: about three times the quartile spread measured
    /// over ten seeds on the widest workload, never under `bound`. This is
    /// the bound `BENCHMARK.json` carries, because its driver draws a new
    /// seed for every run.
    pub seed_bound: f64,
    /// Listed under `end_to_end` in `BENCHMARK.json`: defined on every
    /// workload, never 0, steady across seeds. The others are listed under
    /// its `per_layer` (no bound there) and bounded by `compare` alone.
    pub published: bool,
    pub clock: Clock,
    pub on: On,
    pub definition: &'static str,
}

use Better::{Higher, Lower};
use Workload::{BurstSkew, CacheWbZipf, KvYcsbA, MixedFrag, RackFailover};

const WRITERS: On = On::Only(&[MixedFrag, CacheWbZipf, BurstSkew, KvYcsbA, RackFailover]);

pub const END_TO_END: [EndToEnd; 15] = [
    EndToEnd {
        name: "sim_kiops",
        unit: "kops/s",
        better: Higher,
        bound: Bound::Rel(0.02),
        seed_bound: 0.12,
        published: true,
        clock: Clock::Sim,
        on: On::All,
        definition: "client-visible operations completed in the measured window per simulated second (fio IOs, KV ops, rack logical IOs)",
    },
    EndToEnd {
        name: "sim_mbps",
        unit: "MB/s",
        better: Higher,
        bound: Bound::Rel(0.02),
        seed_bound: 0.12,
        published: true,
        clock: Clock::Sim,
        on: On::All,
        definition: "completed payload bytes per simulated second (KV: operations x value size, so it restates sim_kiops there)",
    },
    EndToEnd {
        name: "sim_read_mean_us",
        unit: "us",
        better: Lower,
        bound: Bound::Rel(0.05),
        seed_bound: 0.17,
        published: true,
        clock: Clock::Sim,
        on: On::All,
        definition: "count-weighted mean of per-tenant mean read latency; stands in BENCHMARK.json for sim_read_p50_us, which reads 0 on kv_ycsb_a",
    },
    EndToEnd {
        name: "sim_read_p50_us",
        unit: "us",
        better: Lower,
        bound: Bound::Rel(0.05),
        seed_bound: 0.25,
        published: false,
        clock: Clock::Sim,
        on: On::All,
        definition: "count-weighted mean of per-tenant read p50 (the engines publish per-tenant summaries, not pooled histograms); 0 on kv_ycsb_a, where the median read is a memtable hit",
    },
    EndToEnd {
        name: "sim_read_p99_us",
        unit: "us",
        better: Lower,
        bound: Bound::Rel(0.05),
        seed_bound: 0.25,
        // The histograms are bucketed (1/64 of a power of two), and on
        // scale_fanout the worst of 256 tenants lands in the same bucket on
        // every seed: a time that reads the same on every run, which the
        // BENCHMARK.json driver refuses. `sim_read_p99_mean_us` stands in.
        published: false,
        clock: Clock::Sim,
        on: On::All,
        definition: "worst tenant's read p99 over tenants with >= 1000 read samples (so >= 10 samples lie beyond it); that tenant's sample count is printed",
    },
    EndToEnd {
        name: "sim_read_p99_mean_us",
        unit: "us",
        better: Lower,
        bound: Bound::Rel(0.05),
        seed_bound: 0.15,
        published: true,
        clock: Clock::Sim,
        on: On::All,
        definition: "count-weighted mean over the same tenants of their read p99: smoother than the worst tenant's and blind to a single starved tenant, so it complements sim_read_p99_us and never replaces it in a claim",
    },
    EndToEnd {
        name: "sim_write_p99_us",
        unit: "us",
        better: Lower,
        bound: Bound::Rel(0.05),
        seed_bound: 0.20,
        published: false,
        clock: Clock::Sim,
        on: WRITERS,
        definition: "worst tenant's write p99 over tenants with >= 1000 write samples; that tenant's sample count is printed",
    },
    EndToEnd {
        name: "sim_jain",
        unit: "index",
        better: Higher,
        bound: Bound::Abs(0.01),
        seed_bound: 0.01,
        published: true,
        clock: Clock::Sim,
        on: On::All,
        definition: "minimum over worker groups of Jain's index of per-tenant bandwidth within the group (testbed::jain_index)",
    },
    EndToEnd {
        name: "sim_futil_min",
        unit: "ratio",
        better: Higher,
        bound: Bound::Rel(0.05),
        seed_bound: 0.05,
        published: false,
        clock: Clock::Sim,
        on: On::Only(&[MixedFrag]),
        definition: "worst tenant's section-5.1 f-Util (testbed::f_util) against standalone peaks from gimbal_bench::common::standalone_bw on the same precondition, measured during set-up",
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Lower,
        bound: Bound::Abs(0.001),
        seed_bound: 0.25,
        published: false,
        clock: Clock::Sim,
        on: On::All,
        definition: "(completed_err + timed_out, plus failed_typed for the rack) / submitted; a lost acknowledged IO or a failed audit aborts the run instead",
    },
    EndToEnd {
        name: "ok_share",
        unit: "ratio",
        better: Higher,
        bound: Bound::Abs(0.001),
        seed_bound: 0.01,
        published: true,
        clock: Clock::Sim,
        on: On::All,
        definition: "1 - failed_share: the form of failed_share BENCHMARK.json can carry (never 0)",
    },
    EndToEnd {
        name: "host_kops_per_s",
        unit: "kops/s",
        better: Higher,
        bound: Bound::Rel(0.10),
        // Not a seed effect: the fastest of the ~6 repetitions that fit in a
        // run still moves 12-35 % between processes on the shared two-core
        // box this was written on (an idle VM; the neighbours are not).
        seed_bound: 0.25,
        published: true,
        clock: Clock::Host,
        on: On::All,
        definition: "measured-window operations / fastest repetition's host seconds of the whole run() call (build + simulate + collect)",
    },
    EndToEnd {
        name: "host_allocs_per_op",
        unit: "count",
        better: Lower,
        bound: Bound::Rel(0.02),
        seed_bound: 0.03,
        published: true,
        clock: Clock::Host,
        on: On::All,
        definition: "heap allocations during run() / operations, from the counting GlobalAlloc (machine-independent)",
    },
    EndToEnd {
        name: "host_peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: Bound::Rel(0.10),
        seed_bound: 0.10,
        published: true,
        clock: Clock::Host,
        on: On::All,
        definition: "VmHWM of the per-workload process",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: Bound::RelOrAbs(0.10, 0.05),
        seed_bound: 0.25,
        published: true,
        clock: Clock::Host,
        on: On::All,
        definition: "median host time of the zero-length runs of the same config (1 ms sim, 0 warm-up; at least five, spread over the whole run): SSD construction + preconditioning + KV preload + file placement; on mixed_frag the two f-Util standalone runs are timed into it",
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|e| e.name == name)
}

/// A single layer's cost or count. No bound: a layer metric explains an
/// end-to-end change, it is not judged itself. In the driver's result line
/// it reads 0 on a workload where the layer is idle or the metric has no
/// meaning; the bench's own reports omit it there.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `(end-to-end metric, workload)` pairs this metric should move.
    pub moves: &'static [(&'static str, &'static str)],
}

const HOST_SCALE: &[(&str, &str)] = &[("host_kops_per_s", "scale_fanout")];
const HOST_SCALE_MIXED: &[(&str, &str)] = &[
    ("host_kops_per_s", "scale_fanout"),
    ("host_kops_per_s", "mixed_frag"),
];
const FABRIC_HOST: &[(&str, &str)] = &[
    ("host_kops_per_s", "scale_fanout"),
    ("host_kops_per_s", "rack_failover"),
];
const FABRIC_FAIL: &[(&str, &str)] = &[
    ("failed_share", "rack_failover"),
    ("sim_read_p99_us", "rack_failover"),
];
const SWITCH_SIM: &[(&str, &str)] = &[
    ("sim_read_mean_us", "mixed_frag"),
    ("sim_read_p99_us", "mixed_frag"),
    ("sim_read_mean_us", "burst_skew"),
    ("sim_read_p99_us", "burst_skew"),
];
const GIMBAL_SIM: &[(&str, &str)] = &[
    ("sim_futil_min", "mixed_frag"),
    ("sim_jain", "mixed_frag"),
    ("sim_read_p99_us", "mixed_frag"),
];
const GIMBAL_HOST: &[(&str, &str)] = &[
    ("host_kops_per_s", "scale_fanout"),
    ("host_kops_per_s", "mixed_frag"),
];
const SSD_HOST: &[(&str, &str)] = &[("host_kops_per_s", "mixed_frag")];
const SSD_SIM: &[(&str, &str)] = &[
    ("sim_mbps", "mixed_frag"),
    ("sim_read_p99_us", "mixed_frag"),
    ("sim_write_p99_us", "cache_wb_zipf"),
];
const CACHE_HOST: &[(&str, &str)] = &[("host_kops_per_s", "cache_wb_zipf")];
const CACHE_SIM: &[(&str, &str)] = &[
    ("sim_read_p50_us", "cache_wb_zipf"),
    ("sim_read_mean_us", "cache_wb_zipf"),
    ("sim_kiops", "cache_wb_zipf"),
];
const BROKER_HOST: &[(&str, &str)] = &[("host_kops_per_s", "burst_skew")];
const BROKER_SIM: &[(&str, &str)] = &[
    ("sim_read_p99_us", "burst_skew"),
    ("sim_mbps", "burst_skew"),
];
const CORES_SIM: &[(&str, &str)] = &[("sim_mbps", "burst_skew")];
const HOST_ALL: &[(&str, &str)] = &[
    ("host_kops_per_s", "mixed_frag"),
    ("host_kops_per_s", "scale_fanout"),
    ("host_kops_per_s", "cache_wb_zipf"),
    ("host_kops_per_s", "burst_skew"),
    ("host_kops_per_s", "kv_ycsb_a"),
    ("host_kops_per_s", "rack_failover"),
];
const HOST_KV: &[(&str, &str)] = &[("host_kops_per_s", "kv_ycsb_a")];
const HOST_KV_RACK: &[(&str, &str)] = &[
    ("host_kops_per_s", "kv_ycsb_a"),
    ("host_kops_per_s", "rack_failover"),
];
const LSM_SIM: &[(&str, &str)] = &[
    ("sim_kiops", "kv_ycsb_a"),
    ("sim_read_p99_us", "kv_ycsb_a"),
    ("sim_write_p99_us", "kv_ycsb_a"),
];
const TESTBED_HOST: &[(&str, &str)] = &[
    ("host_kops_per_s", "mixed_frag"),
    ("host_kops_per_s", "scale_fanout"),
    ("host_kops_per_s", "cache_wb_zipf"),
    ("host_kops_per_s", "burst_skew"),
];
const RACK_SIM: &[(&str, &str)] = &[
    ("failed_share", "rack_failover"),
    ("sim_read_p99_us", "rack_failover"),
    ("sim_kiops", "rack_failover"),
];
const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [(&'static str, &'static str)],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// `_ns` = host ns per call, measured in the traced pass. Counts, ratios
/// and `_us` come from the public result structs: simulated clock, exact.
pub const PER_LAYER: [PerLayer; 67] = [
    // sim
    m("sim.queue_hold_ns", "ns", Lower, HOST_SCALE_MIXED),
    m("sim.detmap_cycle_ns", "ns", Lower, HOST_SCALE_MIXED),
    // Only the rack engine allocates per-command state from an arena when
    // no faults are armed.
    m(
        "sim.arena_cycle_ns",
        "ns",
        Lower,
        &[("host_kops_per_s", "rack_failover")],
    ),
    m("sim.hist_record_ns", "ns", Lower, HOST_SCALE_MIXED),
    // fabric
    m("fabric.capsule_pair_ns", "ns", Lower, FABRIC_HOST),
    m(
        "fabric.tor_hop_pair_ns",
        "ns",
        Lower,
        &[("host_kops_per_s", "rack_failover")],
    ),
    m("fabric.retries", "count", Lower, FABRIC_FAIL),
    m("fabric.timeouts", "count", Lower, FABRIC_FAIL),
    m(
        "fabric.unloaded_read_us",
        "us",
        Lower,
        &[("sim_read_mean_us", "scale_fanout")],
    ),
    // nic
    m("nic.process_ns", "ns", Lower, HOST_SCALE),
    // switch
    m("switch.on_command_self_ns", "ns", Lower, HOST_SCALE),
    m("switch.poll_self_ns", "ns", Lower, HOST_SCALE),
    m("switch.polls_per_io", "ratio", Lower, HOST_SCALE),
    m("switch.wait_us", "us", Lower, SWITCH_SIM),
    m("switch.wait_share", "ratio", Lower, SWITCH_SIM),
    // gimbal
    m("gimbal.on_arrival_ns", "ns", Lower, GIMBAL_HOST),
    m("gimbal.next_submission_ns", "ns", Lower, GIMBAL_HOST),
    m("gimbal.on_completion_ns", "ns", Lower, GIMBAL_HOST),
    m("gimbal.submit_attempt_ratio", "ratio", Higher, GIMBAL_HOST),
    m("gimbal.credit_client_ns", "ns", Lower, HOST_SCALE),
    m("gimbal.cong_transitions", "count", Lower, GIMBAL_SIM),
    m("gimbal.tenant_deferrals", "count", Lower, GIMBAL_SIM),
    m("gimbal.credit_grants", "count", Higher, GIMBAL_SIM),
    // ssd
    m("ssd.submit_ns", "ns", Lower, SSD_HOST),
    m("ssd.poll_ns", "ns", Lower, SSD_HOST),
    m("ssd.dev_read_mean_us", "us", Lower, SSD_SIM),
    m("ssd.dev_read_p99_us", "us", Lower, SSD_SIM),
    m("ssd.dev_write_mean_us", "us", Lower, SSD_SIM),
    m("ssd.write_amp", "ratio", Lower, SSD_SIM),
    m("ssd.gc_collections", "count", Lower, SSD_SIM),
    m("ssd.buffer_stalls", "count", Lower, SSD_SIM),
    m("ssd.ios", "count", Higher, SSD_SIM),
    // cache
    m("cache.read_hit_ns", "ns", Lower, CACHE_HOST),
    m("cache.miss_fill_ns", "ns", Lower, CACHE_HOST),
    m("cache.write_ack_flush_ns", "ns", Lower, CACHE_HOST),
    m("cache.hit_ratio", "ratio", Higher, CACHE_SIM),
    m("cache.evictions", "count", Lower, CACHE_SIM),
    m("cache.flushed_lines", "count", Higher, CACHE_SIM),
    m("cache.lost_lines", "count", Lower, CACHE_SIM),
    // broker
    m("broker.try_charge_ns", "ns", Lower, BROKER_HOST),
    m("broker.settle_epoch_ns", "ns", Lower, BROKER_HOST),
    m("broker.denial_ratio", "ratio", Lower, BROKER_SIM),
    m("broker.borrow_events", "count", Higher, BROKER_SIM),
    m("broker.forgiven_share", "ratio", Lower, BROKER_SIM),
    // cores
    m("cores.begin_end_ns", "ns", Lower, BROKER_HOST),
    m("cores.steals", "count", Higher, CORES_SIM),
    m("cores.stolen_busy_share", "ratio", Higher, CORES_SIM),
    m("cores.busy_imbalance", "ratio", Lower, CORES_SIM),
    // telemetry
    m("telemetry.record_ns", "ns", Lower, HOST_ALL),
    m("telemetry.disabled_record_ns", "ns", Lower, HOST_ALL),
    m("telemetry.trace_overhead_pct", "%", Lower, HOST_ALL),
    m("telemetry.events_recorded", "count", Lower, HOST_ALL),
    // workload
    m("workload.fio_next_ns", "ns", Lower, HOST_SCALE),
    m("workload.ycsb_next_ns", "ns", Lower, HOST_KV),
    // blobstore
    m("blobstore.plan_read_ns", "ns", Lower, HOST_KV_RACK),
    // lsm-kv
    m("lsm-kv.begin_op_ns", "ns", Lower, HOST_KV),
    m("lsm-kv.probe_reads_per_get", "ratio", Lower, LSM_SIM),
    m(
        "lsm-kv.bg_write_bytes_per_user_byte",
        "ratio",
        Lower,
        LSM_SIM,
    ),
    m("lsm-kv.write_stalls", "count", Lower, LSM_SIM),
    // testbed
    m("testbed.events", "count", Lower, TESTBED_HOST),
    m("testbed.events_per_op", "ratio", Lower, TESTBED_HOST),
    m("testbed.host_ns_per_event", "ns", Lower, TESTBED_HOST),
    m(
        "testbed.ledger_attributed_share",
        "ratio",
        Higher,
        TESTBED_HOST,
    ),
    // rack
    m("rack.reroutes", "count", Lower, RACK_SIM),
    m("rack.nodes_suspected", "count", Lower, RACK_SIM),
    m("rack.degraded_ack_share", "ratio", Lower, RACK_SIM),
    m("rack.tor_bytes_per_op", "ratio", Lower, RACK_SIM),
];

/// The layer a per-layer metric belongs to: the crate name before the dot.
pub fn layer_of(name: &str) -> &str {
    name.split_once('.').map_or("client", |(l, _)| l)
}

/// A `_ns` metric is refused below this many timed calls.
pub const MIN_TIMED_CALLS: u64 = 100_000;

/// The `list` subcommand's output and the body of `BENCHMARK.json` minus
/// `command`/`paths`/`run_seconds`.
pub fn workloads_json() -> Json {
    Json::Arr(
        Workload::ALL
            .iter()
            .map(|w| {
                Json::obj(vec![
                    ("name", Json::str(w.name())),
                    ("why", Json::str(w.why())),
                ])
            })
            .collect(),
    )
}

/// `BENCHMARK.json`'s `end_to_end`: the published metrics with the bound
/// that holds across seeds.
pub fn end_to_end_json() -> Json {
    Json::Arr(
        END_TO_END
            .iter()
            .filter(|e| e.published)
            .map(|e| {
                Json::obj(vec![
                    ("name", Json::str(e.name)),
                    ("unit", Json::str(e.unit)),
                    ("better", Json::str(e.better.name())),
                    ("bound", Json::Num(e.seed_bound)),
                ])
            })
            .collect(),
    )
}

/// `BENCHMARK.json`'s `per_layer`, in the order the driver's traced result
/// line prints them: the end-to-end metrics its `end_to_end` cannot carry,
/// then the layer metrics.
pub fn driver_per_layer() -> Vec<(&'static str, &'static str, Better)> {
    END_TO_END
        .iter()
        .filter(|e| !e.published)
        .map(|e| (e.name, e.unit, e.better))
        .chain(PER_LAYER.iter().map(|p| (p.name, p.unit, p.better)))
        .collect()
}

pub fn per_layer_json() -> Json {
    Json::Arr(
        driver_per_layer()
            .into_iter()
            .map(|(name, unit, better)| {
                Json::obj(vec![
                    ("name", Json::str(name)),
                    ("unit", Json::str(unit)),
                    ("better", Json::str(better.name())),
                ])
            })
            .collect(),
    )
}
