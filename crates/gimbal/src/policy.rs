//! [`GimbalPolicy`]: the composition of all Gimbal techniques into one
//! per-SSD pipeline stage (Fig 5).
//!
//! Ingress: requests land in per-tenant priority queues and are scheduled by
//! the virtual-slot DRR. Egress: the rate controller's dual token bucket
//! gates submissions; completions feed the delay-based congestion control
//! and the write-cost estimator; the resulting credit rides back to the
//! client in each completion capsule.

use crate::congestion::LatencyMonitor;
use crate::params::Params;
use crate::rate::RateController;
use crate::scheduler::{SchedPoll, VirtualSlotScheduler};
use crate::write_cost::WriteCostEstimator;
use gimbal_fabric::{IoType, SsdId, TenantId};
use gimbal_sim::SimTime;
use gimbal_switch::{CompletionInfo, PolicyPoll, Request, SwitchPolicy};
use gimbal_telemetry::TraceHandle;

/// The Gimbal storage switch policy for one SSD.
pub struct GimbalPolicy {
    scheduler: VirtualSlotScheduler,
    rate: RateController,
    write_cost: WriteCostEstimator,
    /// The head-of-line request the last DRR walk stopped at for lack of
    /// tokens, until the next arrival or completion. Until then a re-walk
    /// would stop at the same request: the front tenant keeps its open slot
    /// and a deficit covering it, its priority pick repeats, a refused
    /// token check changes nothing, and the write cost only moves on
    /// completions. So only the bucket needs rechecking.
    blocked: Option<(IoType, u64)>,
}

impl GimbalPolicy {
    /// Build a Gimbal stage with the given parameters.
    pub fn new(params: Params) -> Self {
        params.validate();
        GimbalPolicy {
            scheduler: VirtualSlotScheduler::new(params),
            rate: RateController::new(params),
            write_cost: WriteCostEstimator::new(&params),
            blocked: None,
        }
    }

    /// Current estimated device capacity (target rate), bytes/second.
    pub fn target_rate(&self) -> f64 {
        self.rate.target_rate()
    }

    /// Current dynamic write cost.
    pub fn current_write_cost(&self) -> f64 {
        self.write_cost.cost()
    }

    /// The latency monitor for an IO type (exposed for the Fig 18 threshold
    /// trace).
    pub fn monitor(&self, io_type: IoType) -> &LatencyMonitor {
        self.rate.monitor(io_type)
    }
}

impl SwitchPolicy for GimbalPolicy {
    fn on_arrival(&mut self, req: Request, now: SimTime) {
        self.blocked = None;
        self.scheduler.on_arrival(req, now);
    }

    fn next_submission(&mut self, now: SimTime, _device_inflight: usize) -> PolicyPoll {
        let wc = self.write_cost.cost();
        self.rate.update_buckets(now, wc);
        if let Some((io_type, size)) = self.blocked {
            if !self.rate.can_consume(io_type, size) {
                return PolicyPoll::WaitUntil(self.rate.wait_hint(now, io_type, size, wc));
            }
        }
        // Split borrows: the scheduler walks its lists while the token check
        // consults the rate controller.
        let rate = &mut self.rate;
        let poll = self.scheduler.dequeue(now, wc, |req| {
            rate.try_consume(req.cmd.opcode, req.cmd.len_bytes())
        });
        self.blocked = None;
        match poll {
            SchedPoll::Submit(req) => PolicyPoll::Submit(req),
            SchedPoll::Blocked { io_type, size } => {
                self.blocked = Some((io_type, size));
                PolicyPoll::WaitUntil(self.rate.wait_hint(now, io_type, size, wc))
            }
            SchedPoll::Empty => PolicyPoll::Idle,
        }
    }

    fn on_completion(&mut self, info: &CompletionInfo, now: SimTime) {
        self.blocked = None;
        let op = info.cmd.opcode;
        // Error completions release scheduler state but carry no valid
        // latency signal for congestion control.
        if !info.failed {
            self.rate
                .on_completion(now, op, info.cmd.len_bytes(), info.device_latency);
            if op.is_write() {
                let below = self.rate.monitor(IoType::Write).below_min();
                self.write_cost.on_write_completion(now, below);
            }
        }
        self.scheduler.on_completion(info.cmd.id, now);
    }

    fn credit_for(&mut self, tenant: TenantId) -> Option<u32> {
        Some(self.scheduler.credit_for(tenant))
    }

    fn queued(&self) -> usize {
        self.scheduler.queued()
    }

    fn name(&self) -> &'static str {
        "gimbal"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn attach_trace(&mut self, trace: TraceHandle, ssd: SsdId) {
        self.scheduler.attach_trace(trace.clone(), ssd);
        self.rate.attach_trace(trace.clone(), ssd);
        self.write_cost.attach_trace(trace, ssd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gimbal_fabric::{CmdId, NvmeCmd, Priority};
    use gimbal_nic::CpuCost;
    use gimbal_sim::SimRng;
    use gimbal_ssd::{FlashSsd, SsdConfig};
    use gimbal_switch::{Pipeline, PipelineConfig};

    fn cmd(id: u64, tenant: u32, op: IoType, lba: u64, len: u32, now: SimTime) -> NvmeCmd {
        NvmeCmd {
            id: CmdId(id),
            tenant: TenantId(tenant),
            ssd: SsdId(0),
            opcode: op,
            lba,
            len,
            priority: Priority::NORMAL,
            issued_at: now,
            wal: None,
        }
    }

    fn flash_pipeline(clean: bool) -> Pipeline<FlashSsd> {
        let cfg = SsdConfig {
            logical_capacity: 512 * 1024 * 1024,
            ..SsdConfig::default()
        };
        let mut ssd = FlashSsd::new(cfg, 7);
        if clean {
            ssd.precondition_clean();
        } else {
            ssd.precondition_fragmented();
        }
        Pipeline::new(
            SsdId(0),
            ssd,
            Box::new(GimbalPolicy::new(Params::default())),
            PipelineConfig {
                cpu_cost: CpuCost::arm_gimbal(),
                null_device: false,
                cache: None,
                broker: None,
            },
        )
    }

    #[test]
    fn end_to_end_read_stream_flows_with_credits() {
        let mut p = flash_pipeline(true);
        let mut rng = SimRng::new(1);
        // The rate controller ramps exponentially (~×e⁸ per second); it
        // takes ~0.4 s of virtual time to reach device peak from 64 MB/s.
        let horizon = SimTime::from_millis(600);
        let cap = 512 * 1024 * 1024 / 4096 - 32;
        let mut next_id = 0u64;
        let mut outstanding = 0u32;
        let mut credit = 16u32;
        let mut completed = 0u64;
        let mut issue = |p: &mut Pipeline<FlashSsd>, now: SimTime, next_id: &mut u64| {
            let c = cmd(*next_id, 0, IoType::Read, rng.gen_below(cap), 4096, now);
            *next_id += 1;
            p.on_command(c, now);
        };
        for _ in 0..credit {
            issue(&mut p, SimTime::ZERO, &mut next_id);
            outstanding += 1;
        }
        while let Some(t) = p.next_event_at() {
            if t > horizon {
                break;
            }
            p.poll(t);
            for out in p.take_outputs() {
                completed += 1;
                outstanding -= 1;
                credit = out.credit.expect("gimbal piggybacks credits");
                while outstanding < credit.min(128) {
                    issue(&mut p, t, &mut next_id);
                    outstanding += 1;
                }
            }
        }
        assert!(completed > 40_000, "reads flowed: {completed}");
        // Congestion control should have grown the rate well past the
        // 64 MB/s initial target — the run-average throughput implies it.
        let mbps = completed as f64 * 4096.0 / horizon.as_secs_f64() / 1e6;
        assert!(mbps > 300.0, "throughput {mbps:.0} MB/s");
    }

    #[test]
    fn write_cost_drops_for_buffered_writes_and_recovers() {
        let mut policy = GimbalPolicy::new(Params::default());
        // Simulate many fast (buffered) write completions over time.
        for i in 1..=2000u64 {
            let now = SimTime::from_micros(i * 100); // 200 ms total
            let info = CompletionInfo {
                cmd: cmd(i, 0, IoType::Write, 0, 4096, now),
                device_latency: gimbal_sim::SimDuration::from_micros(60),
                completed_at: now,
                failed: false,
            };
            policy.on_completion(&info, now);
        }
        assert!(
            policy.current_write_cost() < 2.0,
            "cost credits buffered writes: {}",
            policy.current_write_cost()
        );
        // Now latency spikes (buffer overrun): cost converges back up.
        for i in 1..=200u64 {
            let now = SimTime::from_micros(200_000 + i * 500);
            let info = CompletionInfo {
                cmd: cmd(10_000 + i, 0, IoType::Write, 0, 4096, now),
                device_latency: gimbal_sim::SimDuration::from_micros(900),
                completed_at: now,
                failed: false,
            };
            policy.on_completion(&info, now);
        }
        assert!(
            policy.current_write_cost() > 7.0,
            "cost recovers toward worst: {}",
            policy.current_write_cost()
        );
    }

    #[test]
    fn rate_pacing_emits_wait_hints_under_token_shortage() {
        let mut policy = GimbalPolicy::new(Params::default());
        let now = SimTime::from_micros(10);
        // Fill the queue with large writes; the write bucket (256 KB,
        // initial) drains after two 128 KB writes at cost 9.
        for i in 0..16 {
            policy.on_arrival(
                Request {
                    cmd: cmd(i, 0, IoType::Write, 0, 128 * 1024, now),
                    ready_at: now,
                },
                now,
            );
        }
        let mut submits = 0;
        let wait = loop {
            match policy.next_submission(now, submits) {
                PolicyPoll::Submit(_) => submits += 1,
                PolicyPoll::WaitUntil(t) => break Some(t),
                PolicyPoll::Idle => break None,
            }
            assert!(submits < 16, "tokens must run out before the queue");
        };
        let wait = wait.expect("must block on tokens, not go idle");
        assert!(wait > now);
        assert!((1..16).contains(&submits), "submitted {submits}");
    }

    /// `next_submission` as it was before the sticky verdict — every poll
    /// refills the buckets and walks the DRR — built only from the public
    /// parts, as the reference for the cached path.
    struct WalkEveryPoll {
        scheduler: VirtualSlotScheduler,
        rate: RateController,
        write_cost: WriteCostEstimator,
    }

    impl WalkEveryPoll {
        fn new(params: Params) -> Self {
            WalkEveryPoll {
                scheduler: VirtualSlotScheduler::new(params),
                rate: RateController::new(params),
                write_cost: WriteCostEstimator::new(&params),
            }
        }

        fn next_submission(&mut self, now: SimTime) -> PolicyPoll {
            let wc = self.write_cost.cost();
            self.rate.update_buckets(now, wc);
            let rate = &mut self.rate;
            match self.scheduler.dequeue(now, wc, |req| {
                rate.try_consume(req.cmd.opcode, req.cmd.len_bytes())
            }) {
                SchedPoll::Submit(req) => PolicyPoll::Submit(req),
                SchedPoll::Blocked { io_type, size } => {
                    PolicyPoll::WaitUntil(self.rate.wait_hint(now, io_type, size, wc))
                }
                SchedPoll::Empty => PolicyPoll::Idle,
            }
        }

        fn on_completion(&mut self, info: &CompletionInfo, now: SimTime) {
            let op = info.cmd.opcode;
            if !info.failed {
                self.rate
                    .on_completion(now, op, info.cmd.len_bytes(), info.device_latency);
                if op.is_write() {
                    let below = self.rate.monitor(IoType::Write).below_min();
                    self.write_cost.on_write_completion(now, below);
                }
            }
            self.scheduler.on_completion(info.cmd.id, now);
        }
    }

    /// A comparable rendering of a verdict: kind, then command id or instant.
    fn verdict(p: PolicyPoll) -> (u8, u64) {
        match p {
            PolicyPoll::Submit(r) => (0, r.cmd.id.0),
            PolicyPoll::WaitUntil(t) => (1, t.as_nanos()),
            PolicyPoll::Idle => (2, 0),
        }
    }

    #[test]
    fn sticky_verdict_matches_walking_the_drr_on_every_poll() {
        use crate::congestion::CongestionState;
        use gimbal_sim::SimDuration;
        let (mut sticky_hits, mut overloads, mut costs_seen) = (0u32, 0u32, Vec::new());
        for case in 0..64u64 {
            let single_bucket = case % 2 == 1;
            let params = Params {
                single_bucket,
                ..Params::default()
            };
            let mut rng = SimRng::new(0x5EED_0000 + case);
            let tenants = 1 + rng.gen_below(3) as u32;
            let mut policy = GimbalPolicy::new(params);
            let mut reference = WalkEveryPoll::new(params);
            let mut now = SimTime::from_micros(1);
            let mut inflight: Vec<NvmeCmd> = Vec::new();
            let mut next_id = 0u64;
            let steps = 1500u64;
            for step in 0..steps {
                match rng.gen_below(10) {
                    // Arrivals: all three priorities, reads and writes, 4-128 KiB.
                    0..=2 => {
                        let op = if rng.gen_below(2) == 0 {
                            IoType::Read
                        } else {
                            IoType::Write
                        };
                        let len = 4096 * (1 + rng.gen_below(32) as u32);
                        let tenant = rng.gen_below(u64::from(tenants)) as u32;
                        let mut c = cmd(next_id, tenant, op, 0, len, now);
                        c.priority = Priority(rng.gen_below(3) as u8);
                        next_id += 1;
                        let req = Request {
                            cmd: c,
                            ready_at: now,
                        };
                        policy.on_arrival(req, now);
                        reference.scheduler.on_arrival(req, now);
                    }
                    // Completions: latency walks Alg. 1 from under-utilized
                    // to overloaded over the case; fast writes early and slow
                    // writes late move the write cost both ways.
                    3..=4 if !inflight.is_empty() => {
                        let i = rng.gen_below(inflight.len() as u64) as usize;
                        let c = inflight.swap_remove(i);
                        let phase_us = [100, 400, 1_000, 2_500, 8_000][(step * 5 / steps) as usize];
                        let lat_us = phase_us / 2 + rng.gen_below(phase_us);
                        let info = CompletionInfo {
                            cmd: c,
                            device_latency: SimDuration::from_micros(lat_us),
                            completed_at: now,
                            failed: rng.gen_below(50) == 0,
                        };
                        policy.on_completion(&info, now);
                        reference.on_completion(&info, now);
                        if policy.rate.state() == CongestionState::Overloaded {
                            overloads += 1;
                        }
                    }
                    // Advance time; the next poll sees a refill. Steps of up
                    // to twice the 10 ms write-cost period let completions
                    // move the cost often.
                    5 => now += SimDuration::from_micros(rng.gen_below(20_000)),
                    // Polls at the current instant, repeated or drained.
                    _ => {
                        let drain = rng.gen_below(2) == 0;
                        for _ in 0..if drain { 64 } else { 1 } {
                            sticky_hits += u32::from(policy.blocked.is_some());
                            let got = policy.next_submission(now, inflight.len());
                            let want = reference.next_submission(now);
                            assert_eq!(verdict(got), verdict(want), "case {case} step {step}");
                            match got {
                                PolicyPoll::Submit(r) => inflight.push(r.cmd),
                                _ => break,
                            }
                        }
                    }
                }
                let (got, want) = (&policy.rate, &reference.rate);
                assert_eq!(
                    (got.read_tokens().to_bits(), got.write_tokens().to_bits()),
                    (want.read_tokens().to_bits(), want.write_tokens().to_bits()),
                    "tokens: case {case} step {step}"
                );
                let wc = policy.current_write_cost();
                assert_eq!(wc.to_bits(), reference.write_cost.cost().to_bits());
                if !costs_seen.contains(&wc.to_bits()) {
                    costs_seen.push(wc.to_bits());
                }
            }
        }
        // The interleavings reached what the argument depends on.
        assert!(sticky_hits > 1_000, "sticky path taken {sticky_hits} times");
        assert!(overloads > 0, "Alg. 1 never reached overloaded");
        assert!(costs_seen.len() > 2, "write cost never moved");
    }
}
