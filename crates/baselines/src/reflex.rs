//! ReFlex-style QoS scheduling: offline-profiled token costs + DRR.
//!
//! ReFlex assigns every request a *token* cost from a device model
//! calibrated offline (the paper's port uses the proposed curve-fitting
//! method against the test SSD), replenishes tokens at the device's profiled
//! capacity, and serves tenants' requests deficit-round-robin in token
//! units. Because the model is static:
//!
//! * on a **clean** SSD the worst-case write cost (and conservative
//!   capacity) leaves large-IO and write bandwidth on the table — Gimbal
//!   beats it ×2.4 / ×6.6 on clean reads/writes (§5.2);
//! * cost is proportional to request size, so a 4 KB and a 128 KB stream
//!   get equal *bytes*, not equal device-time (§5.3, Fig 7a);
//! * there is no client-side flow control, so client queues build at the
//!   target and tail latency grows under consolidation (§5.4).

use gimbal_fabric::{IoType, TenantId};
use gimbal_sim::collections::DetMap;
use gimbal_sim::{SimDuration, SimTime, TokenBucket};
use gimbal_switch::{CompletionInfo, PolicyPoll, Request, SwitchPolicy};
use std::collections::VecDeque;

// The offline-profiled device model and scheduler parameters, calibrated
// against the DCT983.

/// Token cost per KiB of read payload. The unit token is "one 4 KiB random
/// read", i.e. 0.25 tokens/KiB.
const READ_COST_PER_KB: f64 = 0.25;
/// Token cost per KiB of write payload — the *worst-case* calibrated ratio
/// (×9 for the DCT983, matching `write_cost_worst`).
const WRITE_COST_PER_KB: f64 = 2.25;
/// Token replenishment rate (device capacity), tokens/second. Profiled
/// conservatively so SLOs hold on a fragmented device: calibrated against
/// the fragmented DCT983 profile, ~320 K 4 KiB-read-equivalents per second.
const TOKEN_RATE: f64 = 320_000.0;
/// Token bucket depth (burst allowance), tokens. Must exceed the costliest
/// single request (128 KiB write = 288 tokens) or that request can never be
/// admitted.
const BUCKET_TOKENS: u64 = 576;
/// DRR quantum in tokens.
const QUANTUM: f64 = 32.0;

/// Token cost of a request under the static model.
fn cost(op: IoType, bytes: u64) -> f64 {
    let kb = bytes as f64 / 1024.0;
    match op {
        IoType::Read => READ_COST_PER_KB * kb,
        IoType::Write => WRITE_COST_PER_KB * kb,
    }
}

struct Tenant {
    queue: VecDeque<Request>,
    deficit: f64,
}

/// The ReFlex-style target policy, with the calibration above.
pub struct ReflexPolicy {
    tenants: DetMap<TenantId, Tenant>,
    active: VecDeque<TenantId>,
    bucket: TokenBucket,
    queued: usize,
}

impl ReflexPolicy {
    fn scaled(cost: f64) -> u64 {
        (cost * 1000.0).ceil() as u64
    }
}

impl Default for ReflexPolicy {
    fn default() -> Self {
        // TokenBucket is byte-denominated; we store tokens ×1000 to keep
        // fractional costs meaningful in integer consume calls.
        let scale = 1000u64;
        ReflexPolicy {
            tenants: DetMap::new(),
            active: VecDeque::new(),
            bucket: TokenBucket::with_rate(TOKEN_RATE * scale as f64, BUCKET_TOKENS * scale),
            queued: 0,
        }
    }
}

impl SwitchPolicy for ReflexPolicy {
    fn on_arrival(&mut self, req: Request, _now: SimTime) {
        let id = req.cmd.tenant;
        let t = self.tenants.get_or_insert_with(id, || Tenant {
            queue: VecDeque::new(),
            deficit: 0.0,
        });
        let was_empty = t.queue.is_empty();
        t.queue.push_back(req);
        self.queued += 1;
        if was_empty && !self.active.contains(&id) {
            self.active.push_back(id);
        }
    }

    fn next_submission(&mut self, now: SimTime, _device_inflight: usize) -> PolicyPoll {
        self.bucket.refill(now);
        // Bounded DRR walk: the costliest request is write_cost_per_kb ×
        // 128 KiB ≈ 288 tokens ⇒ at most ⌈288/quantum⌉ + 1 visits per tenant.
        let max_cost_visits = (cost(IoType::Write, 128 * 1024) / QUANTUM).ceil() as usize + 2;
        let mut budget = max_cost_visits * (self.active.len() + 1);
        while budget > 0 {
            budget -= 1;
            let Some(&tid) = self.active.front() else {
                return PolicyPoll::Idle;
            };
            let t = self.tenants.get_mut(&tid).unwrap();
            let Some(req) = t.queue.front().copied() else {
                t.deficit = 0.0;
                self.active.pop_front();
                continue;
            };
            let cost = cost(req.cmd.opcode, req.cmd.len_bytes());
            if t.deficit >= cost {
                // Deficit-eligible: now gate on the device's token capacity.
                if !self.bucket.try_consume(Self::scaled(cost)) {
                    let at = self
                        .bucket
                        .time_until_available(now, Self::scaled(cost))
                        .unwrap_or(now + SimDuration::from_millis(1));
                    return PolicyPoll::WaitUntil(at.max(now + SimDuration::from_nanos(1)));
                }
                t.queue.pop_front();
                t.deficit -= cost;
                self.queued -= 1;
                return PolicyPoll::Submit(req);
            }
            t.deficit += QUANTUM;
            self.active.rotate_left(1);
        }
        PolicyPoll::Idle
    }

    fn on_completion(&mut self, _info: &CompletionInfo, _now: SimTime) {
        // Static model: completions carry no feedback.
    }

    fn queued(&self) -> usize {
        self.queued
    }

    fn name(&self) -> &'static str {
        "reflex"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gimbal_fabric::{CmdId, NvmeCmd, Priority, SsdId};

    fn req(id: u64, tenant: u32, op: IoType, len: u32) -> Request {
        Request {
            cmd: NvmeCmd {
                id: CmdId(id),
                tenant: TenantId(tenant),
                ssd: SsdId(0),
                opcode: op,
                lba: 0,
                len,
                priority: Priority::NORMAL,
                issued_at: SimTime::ZERO,
                wal: None,
            },
            ready_at: SimTime::ZERO,
        }
    }

    #[test]
    fn cost_is_size_proportional() {
        assert_eq!(cost(IoType::Read, 4096), 1.0);
        assert_eq!(cost(IoType::Read, 128 * 1024), 32.0);
        assert_eq!(cost(IoType::Write, 4096), 9.0);
    }

    #[test]
    fn token_rate_caps_throughput() {
        // 320 K tokens/s: submitting 4 KB reads as fast as possible over
        // 100 ms of virtual time must admit ≈ 32 K + burst.
        let mut p = ReflexPolicy::default();
        for i in 0..60_000 {
            p.on_arrival(req(i, 0, IoType::Read, 4096), SimTime::ZERO);
        }
        let mut admitted = 0u64;
        let mut now = SimTime::ZERO;
        let horizon = SimTime::from_millis(100);
        while now <= horizon {
            match p.next_submission(now, 0) {
                PolicyPoll::Submit(_) => admitted += 1,
                PolicyPoll::WaitUntil(t) => now = t,
                PolicyPoll::Idle => break,
            }
        }
        let expected = 32_000.0 + 256.0; // rate × time + initial bucket
        let err = (admitted as f64 - expected).abs() / expected;
        assert!(err < 0.05, "admitted {admitted} vs expected {expected}");
    }

    #[test]
    fn writes_charged_worst_case() {
        // With equal demand, reads get ~9× the bytes of writes.
        // Demand must exceed the token supply of the measurement window so
        // the ratio reflects token charging, not queue drain.
        let mut p = ReflexPolicy::default();
        let mut id = 0;
        for _ in 0..5000 {
            p.on_arrival(req(id, 0, IoType::Read, 4096), SimTime::ZERO);
            id += 1;
            p.on_arrival(req(id, 1, IoType::Write, 4096), SimTime::ZERO);
            id += 1;
        }
        let (mut r, mut w) = (0u64, 0u64);
        let mut now = SimTime::ZERO;
        loop {
            match p.next_submission(now, 0) {
                PolicyPoll::Submit(x) => {
                    if x.cmd.opcode.is_read() {
                        r += 1
                    } else {
                        w += 1
                    }
                }
                PolicyPoll::WaitUntil(t) => {
                    now = t;
                    if now > SimTime::from_millis(10) {
                        break;
                    }
                }
                PolicyPoll::Idle => break,
            }
        }
        let ratio = r as f64 / w.max(1) as f64;
        assert!((7.0..11.0).contains(&ratio), "read:write {r}:{w}");
    }

    #[test]
    fn drr_is_byte_fair_across_sizes() {
        // Same-type tenants with different IO sizes receive equal bytes —
        // the §5.3 observation that ReFlex cannot favor efficient large IOs.
        let mut p = ReflexPolicy::default();
        let mut id = 0;
        for _ in 0..320 {
            p.on_arrival(req(id, 0, IoType::Read, 4096), SimTime::ZERO);
            id += 1;
        }
        for _ in 0..10 {
            p.on_arrival(req(id, 1, IoType::Read, 128 * 1024), SimTime::ZERO);
            id += 1;
        }
        let mut bytes = [0u64; 2];
        let mut now = SimTime::ZERO;
        loop {
            match p.next_submission(now, 0) {
                PolicyPoll::Submit(x) => bytes[x.cmd.tenant.index()] += x.cmd.len_bytes(),
                PolicyPoll::WaitUntil(t) => {
                    now = t;
                    if now > SimTime::from_millis(20) {
                        break;
                    }
                }
                PolicyPoll::Idle => break,
            }
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!((0.8..1.25).contains(&ratio), "bytes {bytes:?}");
    }
}
