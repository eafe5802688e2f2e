//! Golden pins for the trace event schema: one event of every
//! [`EventKind`] variant, with distinctive payloads, folded into the trace
//! digest and rendered by both exporters.
//!
//! The payloads cover a non-integral `f64`, a `u64` above 2³², both `bool`
//! values, tenant-scoped and tenant-less stamps, and every `CongState`,
//! `IoType`, `OverflowDirection` and `CapsuleKind` value. The pins hold:
//!
//! * each event's [`EventKind::fold_into`] digest (the payload schema as the
//!   digest sees it: field order, widening, label bytes);
//! * the [`RecordedTrace::digest`] of the whole set;
//! * an FNV digest of the `jsonl()` and `chrome_trace()` renderings (the
//!   schema as the exporters see it: JSON keys, value spellings).
//!
//! `expected_kind_digest` matches every variant without a wildcard, so a
//! new event kind does not compile until it is pinned here.

use gimbal_repro::fabric::{IoType, SsdId, TenantId};
use gimbal_repro::sim::{Digest, SimTime};
use gimbal_repro::telemetry::export::{chrome_trace, jsonl};
use gimbal_repro::telemetry::{
    CapsuleKind, CongState, EventKind, OverflowDirection, RecordedTrace, TraceConfig, Tracer,
};

/// A `u64` above 2³², so a payload truncated to 32 bits shows.
const BIG: u64 = 0x0000_0012_3456_789a;

/// One event per variant (two where a payload enum has two values to
/// cover), each with its own values.
fn samples() -> Vec<EventKind> {
    vec![
        EventKind::CongestionTransition {
            io: IoType::Read,
            from: CongState::Underutilized,
            to: CongState::CongestionAvoidance,
            ewma_ns: 1234.5678,
            thresh_before_ns: 250_000.25,
            thresh_after_ns: 249_999.125,
        },
        EventKind::RateUpdate {
            io: IoType::Write,
            state: CongState::Congested,
            old_bps: 2.0e9,
            new_bps: 1.875_000_5e9,
        },
        EventKind::BucketRefill {
            read_tokens: 65_536.5,
            write_tokens: 131_072.0,
        },
        EventKind::OverflowTransfer {
            direction: OverflowDirection::ReadToWrite,
            amount: 4096.75,
            src_tokens: 524_288.0,
        },
        EventKind::OverflowTransfer {
            direction: OverflowDirection::WriteToRead,
            amount: 0.1,
            src_tokens: 262_144.5,
        },
        EventKind::WriteCostStep {
            old_cost: 2.5,
            new_cost: 2.375,
            below_min: true,
        },
        EventKind::SlotOpened { slot: 3 },
        EventKind::SlotClosed {
            slot: 4,
            submits: 17,
        },
        EventKind::SlotFreed {
            slot: 5,
            credit_ios: 23,
        },
        EventKind::TenantDeferred { queued: 41 },
        EventKind::TenantResumed,
        EventKind::CreditGranted { credit: 64 },
        EventKind::CreditHalved {
            before: 63,
            after: 31,
        },
        EventKind::SsdGc { die: 7 },
        EventKind::SsdStall { release_ns: BIG },
        EventKind::FaultInjected {
            capsule: CapsuleKind::Command,
        },
        EventKind::FaultInjected {
            capsule: CapsuleKind::Completion,
        },
        EventKind::RetryScheduled {
            cmd: BIG + 1,
            attempt: 2,
            timeout_ns: 1_000_003,
        },
        EventKind::TimedOut {
            cmd: BIG + 2,
            attempts: 5,
        },
        EventKind::CacheHit { lines: 8 },
        EventKind::CacheMiss { lines_missing: 9 },
        EventKind::CacheFill {
            lines: 10,
            ghost_hits: 11,
        },
        EventKind::CacheEvict {
            line: BIG + 3,
            to_ghost: false,
        },
        EventKind::CacheAdmitToggle {
            from: CongState::Overloaded,
            to: CongState::Underutilized,
        },
        EventKind::CacheStagedLoss {
            cmd: BIG + 4,
            lines: 12,
        },
        EventKind::CacheWriteBackAck {
            cmd: BIG + 5,
            lines: 13,
        },
        EventKind::CacheFlushIssued {
            id: (1 << 63) | 6,
            line: BIG + 6,
        },
        EventKind::CacheFlushDone {
            id: (1 << 63) | 7,
            line: BIG + 7,
            requeued: true,
        },
        EventKind::CachePowerLoss { lines_lost: 14 },
        EventKind::CacheDeviceDeath { lines_lost: 15 },
        EventKind::NodeSuspected { node: 1 },
        EventKind::Rerouted {
            cmd: BIG + 8,
            from_node: 1,
            to_node: 2,
        },
        EventKind::NodeDead { node: 3 },
        EventKind::LinkDegraded { node: 4 },
        EventKind::TokenBorrowed {
            lender: 6,
            bytes: BIG + 9,
        },
        EventKind::DebtRepaid {
            lender: 7,
            principal: BIG + 10,
            interest: 333,
        },
        EventKind::DebtForgiven {
            lender: 8,
            bytes: BIG + 11,
        },
        EventKind::TenantMigrated {
            from_ssd: 0,
            to_ssd: 3,
        },
        EventKind::QuantumStolen {
            from_core: 1,
            to_core: 0,
        },
        EventKind::HomeRebalanced {
            from_core: 2,
            to_core: 1,
        },
    ]
}

/// The pinned [`EventKind::fold_into`] digest of each sample.
fn expected_kind_digest(kind: &EventKind) -> u64 {
    match kind {
        EventKind::CongestionTransition { .. } => 0x540a9d5e221f813e,
        EventKind::RateUpdate { .. } => 0xf911292e42013eca,
        EventKind::BucketRefill { .. } => 0x26b21ff9186f4377,
        EventKind::OverflowTransfer {
            direction: OverflowDirection::ReadToWrite,
            ..
        } => 0xe35e5670fde8679e,
        EventKind::OverflowTransfer {
            direction: OverflowDirection::WriteToRead,
            ..
        } => 0xfd3133ce677b4383,
        EventKind::WriteCostStep { .. } => 0xd9086d98f1c1b54d,
        EventKind::SlotOpened { .. } => 0x120fd15f10ff2b80,
        EventKind::SlotClosed { .. } => 0x7bb1b0c16b1a00a3,
        EventKind::SlotFreed { .. } => 0x2e80eec0ef83a6be,
        EventKind::TenantDeferred { .. } => 0xa1c376a2ac1c51d4,
        EventKind::TenantResumed => 0xb5f86162c2ee8d77,
        EventKind::CreditGranted { .. } => 0xf79f52f58d7d1540,
        EventKind::CreditHalved { .. } => 0xcae68eb9bb8e6ae1,
        EventKind::SsdGc { .. } => 0xe911f8586a5b0bbf,
        EventKind::SsdStall { .. } => 0x830fb871f2fac09a,
        EventKind::FaultInjected {
            capsule: CapsuleKind::Command,
        } => 0xfb343492e5c4dde9,
        EventKind::FaultInjected {
            capsule: CapsuleKind::Completion,
        } => 0xf38f91d171b7adae,
        EventKind::RetryScheduled { .. } => 0x7ed864d7e4d0e7ae,
        EventKind::TimedOut { .. } => 0x823ab166dffd6dbe,
        EventKind::CacheHit { .. } => 0xe8018effd91d2087,
        EventKind::CacheMiss { .. } => 0x1461f9859707c597,
        EventKind::CacheFill { .. } => 0xe136cf04d45a6b22,
        EventKind::CacheEvict { .. } => 0x73aacc9077b4723e,
        EventKind::CacheAdmitToggle { .. } => 0x62fbd16eeca9eaef,
        EventKind::CacheStagedLoss { .. } => 0x5b0b8bb39233098c,
        EventKind::CacheWriteBackAck { .. } => 0x67629d670e73dcb7,
        EventKind::CacheFlushIssued { .. } => 0x6edf70f60e496902,
        EventKind::CacheFlushDone { .. } => 0x107bbf11a5877d7e,
        EventKind::CachePowerLoss { .. } => 0x22ac46e84f7f2c01,
        EventKind::CacheDeviceDeath { .. } => 0x475efc11b823296a,
        EventKind::NodeSuspected { .. } => 0x564e8948c33171d7,
        EventKind::Rerouted { .. } => 0x1ec6ef26be82fc0a,
        EventKind::NodeDead { .. } => 0xe33903c263c6ad57,
        EventKind::LinkDegraded { .. } => 0xd309ab225abfbea4,
        EventKind::TokenBorrowed { .. } => 0x4dc9675e221225be,
        EventKind::DebtRepaid { .. } => 0xf95d6bfb57f886d7,
        EventKind::DebtForgiven { .. } => 0xedaee5f796e2370c,
        EventKind::TenantMigrated { .. } => 0x56feb4937b781f0a,
        EventKind::QuantumStolen { .. } => 0x39feb154593da7fd,
        EventKind::HomeRebalanced { .. } => 0x30a466d90e909235,
    }
}

const EXPECTED_TRACE_DIGEST: u64 = 0xb1db6f272861ef70;
const EXPECTED_JSONL_DIGEST: u64 = 0x411b85cee19cecac;
const EXPECTED_CHROME_DIGEST: u64 = 0x6f5343787d145764;

/// The samples recorded in order, stamped on two SSDs, alternating
/// tenant-scoped and tenant-less.
fn recorded() -> RecordedTrace {
    let mut tr = Tracer::new(TraceConfig::default());
    for (i, kind) in samples().into_iter().enumerate() {
        let i = i as u64;
        let tenant = i.is_multiple_of(2).then_some(TenantId(i as u32 % 5));
        tr.record(
            SimTime::from_nanos(1_000 * i + 37),
            SsdId(i as u32 % 2),
            tenant,
            kind,
        );
    }
    tr.metrics_mut().observe("lat", TenantId(1), 81_234);
    tr.metrics_mut().set_gauge("g", 0.5);
    tr.metrics_mut().add("c", BIG);
    tr.finish()
}

fn fnv(s: &str) -> u64 {
    let mut d = Digest::new();
    d.update(s.as_bytes());
    d.value()
}

#[test]
fn every_variant_is_sampled() {
    let mut names: Vec<&str> = samples().iter().map(EventKind::name).collect();
    names.dedup();
    assert_eq!(names.len(), 38, "one sample run per variant: {names:?}");
}

#[test]
fn event_payloads_keep_their_pinned_digests() {
    let mut diffs = Vec::new();
    for kind in samples() {
        let mut d = Digest::new();
        kind.fold_into(&mut d);
        let (got, want) = (d.value(), expected_kind_digest(&kind));
        if got != want {
            diffs.push(format!("{kind:?}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    let trace = recorded();
    for (what, got, want) in [
        ("trace", trace.digest(), EXPECTED_TRACE_DIGEST),
        ("jsonl", fnv(&jsonl(&trace)), EXPECTED_JSONL_DIGEST),
        ("chrome", fnv(&chrome_trace(&trace)), EXPECTED_CHROME_DIGEST),
    ] {
        if got != want {
            diffs.push(format!("{what}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(diffs.is_empty(), "schema pins moved:\n{}", diffs.join("\n"));
}
