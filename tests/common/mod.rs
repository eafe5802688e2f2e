//! Configurations shared by the integration suites: the worker layout that
//! `jbofsim --workers` builds, and the phase-staggered broker bench.

use gimbal_repro::sim::SimDuration;
use gimbal_repro::testbed::{BrokerConfig, BrokerMode, TestbedConfig, WorkerSpec};
use gimbal_repro::workload::{AccessPattern, FioSpec};

const CAP: u64 = 512 * 1024 * 1024 / 4096;

/// The workers `jbofsim --workers SPEC,…` runs, for the part of the spec
/// grammar the pinned configurations use: `COUNTx4k-{read|write}` with
/// optional `-zipf`, `-burstAxB` (A ms on, B ms off, phases staggered evenly
/// across the group) and `-ssdN` suffixes. Every worker gets its own equal
/// LBA region, groups without `-ssdN` go round-robin over `ssds`, and each
/// spec doubles as its group's label — all exactly as in the CLI, so a
/// pinned digest here can be regenerated from the command line.
pub fn cli_workers(specs: &[&str], ssds: u32) -> Vec<WorkerSpec> {
    let groups: Vec<(u32, &str)> = specs
        .iter()
        .map(|s| {
            let (count, rest) = s.split_once("x4k-").expect("spec is COUNTx4k-TYPE…");
            (count.parse().expect("worker count"), rest)
        })
        .collect();
    let total: u32 = groups.iter().map(|&(count, _)| count).sum();
    let per = CAP / u64::from(total);
    let mut workers = Vec::new();
    for (spec, (count, rest)) in specs.iter().zip(groups) {
        let mut parts = rest.split('-');
        let read_ratio = match parts.next() {
            Some("read") => 1.0,
            Some("write") => 0.0,
            other => panic!("unsupported IO type {other:?} in {spec}"),
        };
        let (mut zipf, mut burst, mut pin) = (false, None, None);
        for p in parts {
            if p == "zipf" {
                zipf = true;
            } else if let Some(n) = p.strip_prefix("ssd") {
                pin = Some(n.parse::<u32>().expect("SSD index"));
            } else if let Some((on, off)) = p.strip_prefix("burst").and_then(|b| b.split_once('x'))
            {
                burst = Some((
                    on.parse::<u64>().expect("burst on ms"),
                    off.parse::<u64>().expect("burst off ms"),
                ));
            } else {
                panic!("unsupported suffix {p} in {spec}");
            }
        }
        for k in 0..count {
            let idx = workers.len() as u64;
            let mut fio = FioSpec::paper_default(read_ratio, 4096, idx * per, per);
            if let Some((on, off)) = burst {
                let phase_ns = u64::from(k) * (on + off) * 1_000_000 / u64::from(count);
                fio = fio.with_burst(
                    SimDuration::from_millis(on),
                    SimDuration::from_millis(off),
                    SimDuration::from_nanos(phase_ns),
                );
            }
            if zipf {
                fio.read_pattern = AccessPattern::Zipfian;
                fio.write_pattern = AccessPattern::Zipfian;
            }
            let ssd = pin.unwrap_or((idx % u64::from(ssds)) as u32);
            workers.push(WorkerSpec::new(*spec, fio).on_ssd(ssd));
        }
    }
    workers
}

/// The mix the broker's headline is measured on: four 4 KiB readers, each
/// 25 ms on and 75 ms off with phases staggered so exactly one is on at a
/// time, over one SSD brokered at 200 MiB/s. Strict per-tenant buckets waste
/// every off-phase tenant's refill; borrowing recovers it. The 17 ms epoch
/// is co-prime with the 100 ms burst period, so settlement never
/// phase-locks to one tenant's window.
pub fn broker_bench(mode: BrokerMode) -> (TestbedConfig, Vec<WorkerSpec>) {
    let cfg = TestbedConfig {
        duration: SimDuration::from_millis(500),
        warmup: SimDuration::from_millis(100),
        seed: 42,
        broker: Some(BrokerConfig {
            mode,
            capacity_bps: 200 * 1024 * 1024,
            epoch: SimDuration::from_millis(17),
            ..BrokerConfig::default()
        }),
        ..TestbedConfig::default()
    };
    (cfg, cli_workers(&["4x4k-read-burst25x75"], 1))
}
