//! The per-SSD switch pipeline.
//!
//! Following the prototype's shared-nothing architecture (§4.1), each
//! pipeline owns one SSD and runs on a CPU core (possibly shared with other
//! pipelines when modeling core counts below the SSD count, as in Fig 3).
//! The pipeline:
//!
//! 1. charges submit-path CPU cycles when a command capsule arrives, then
//!    hands the request to the policy;
//! 2. drains the policy's submission decisions into the device, honoring
//!    rate-pacing wake-ups;
//! 3. on device completion, informs the policy, charges completion-path CPU
//!    cycles, and emits a completion capsule carrying the policy's credit
//!    grant.

#![expect(
    clippy::disallowed_types,
    reason = "D8 owner: the reactor core a pipeline runs on is shared with the pipelines co-located on it"
)]

use crate::policy::{CompletionInfo, PolicyPoll, Request, SwitchPolicy};
use gimbal_broker::{BrokerHandle, Charge};
use gimbal_cache::{
    is_flush_id, CacheConfig, CacheStats, FlushIo, SsdCache, StagedWriteLoss, HIT_LATENCY,
};
use gimbal_fabric::{CmdId, CmdStatus, IoType, NvmeCmd, Priority, SsdId, TenantId};
use gimbal_nic::{Core, CpuCost};
use gimbal_sim::collections::DetMap;
use gimbal_sim::{EventQueue, SimDuration, SimTime};
use gimbal_ssd::{SsdCompletion, StorageDevice};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Per-IO CPU cost model.
    pub cpu_cost: CpuCost,
    /// Whether the device is a NULL device (driver cycles skipped, Table 1b).
    pub null_device: bool,
    /// Optional NIC-DRAM cache tier ahead of the policy. `None` — or a
    /// zero-capacity config — constructs no cache at all and is
    /// bit-identical to the pre-cache pipeline.
    pub cache: Option<CacheConfig>,
    /// Optional shared token-broker ledger metering the submit path. `None`
    /// leaves the drain loop bit-identical to the broker-less pipeline.
    pub broker: Option<BrokerHandle>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            cpu_cost: CpuCost::arm_vanilla(),
            null_device: false,
            cache: None,
            broker: None,
        }
    }
}

/// A completion capsule ready to leave the target.
#[derive(Clone, Copy, Debug)]
pub struct PipelineOut {
    /// The original command.
    pub cmd: NvmeCmd,
    /// Completion status.
    pub status: CmdStatus,
    /// Piggybacked credit grant (§3.6), if the policy provides one.
    pub credit: Option<u32>,
    /// Device service latency — the DRAM-copy latency for cache hits.
    pub device_latency: SimDuration,
    /// Instant the capsule is ready for transmission.
    pub at: SimTime,
    /// Whether the read completed from the NIC-DRAM cache without touching
    /// the SSD (device-latency accounting must skip these).
    pub served_from_cache: bool,
}

enum PipeEv {
    ReqReady(Request),
    Emit(PipelineOut),
}

/// The per-SSD pipeline engine. Generic over the device so experiments can
/// swap in a [`gimbal_ssd::NullDevice`].
pub struct Pipeline<D: StorageDevice> {
    ssd: SsdId,
    device: D,
    policy: Box<dyn SwitchPolicy>,
    core: Rc<RefCell<Core>>,
    cfg: PipelineConfig,
    events: EventQueue<PipeEv>,
    inflight: DetMap<u64, NvmeCmd>,
    outputs: Vec<PipelineOut>,
    policy_wake: Option<SimTime>,
    /// NIC-DRAM cache tier ahead of the policy; absent when disabled.
    cache: Option<SsdCache>,
    /// Broker gate metering the submit path; absent when disabled.
    gate: Option<BrokerGate>,
    /// Recycled device-completion buffer: drained every poll, so the steady
    /// state allocates nothing on the completion path.
    cpl_buf: Vec<SsdCompletion>,
    /// Recycled flush-write buffer, drained every flusher pump.
    flush_buf: Vec<FlushIo>,
}

/// Outcome of metering one submission through the broker gate.
enum Gate {
    /// The ledger granted tokens: submit the request to the device.
    Pass(Request),
    /// Fresh denial: the request is parked; wake at the ledger's hint.
    Deny(SimTime),
    /// The tenant was already denied this poll round: the request parked
    /// behind its earlier one (preserving per-tenant submit order) without
    /// touching the wake — the first denial already set it.
    Queue,
}

/// One tenant's parked requests, oldest first, each tagged with the global
/// park sequence number it was parked under.
struct ParkLane {
    tenant: TenantId,
    q: VecDeque<(u64, Request)>,
}

/// The broker gate of one pipeline: the shared ledger plus the requests it
/// denied tokens for, parked in per-tenant FIFO lanes.
///
/// A poll round retries parked requests in park order (smallest `park_seq`
/// first, merged across lanes) until each lane is empty or its head is
/// denied; a denied lane is not looked at again that round. So the retry
/// phase costs O(lanes + (grants + denials) · log lanes), not O(parked
/// requests), and when it ends *a lane is non-empty exactly when its tenant
/// was denied this round* — which is all [`Self::admit`] needs to keep a
/// denied tenant's later submissions behind its parked ones. (`admit`
/// finds the tenant's lane by scanning `lanes`: one entry per tenant ever
/// denied on this SSD.)
struct BrokerGate {
    broker: BrokerHandle,
    ssd: SsdId,
    /// Lanes in first-denial order; a lane is created at a tenant's first
    /// denial and kept (empty) afterwards so its buffer is reused.
    lanes: Vec<ParkLane>,
    /// This round's retry frontier: `(head park_seq, lane index)` of every
    /// lane not yet denied. Rebuilt by [`Self::begin_round`].
    frontier: BinaryHeap<Reverse<(u64, usize)>>,
    next_seq: u64,
    parked: usize,
}

impl BrokerGate {
    fn new(broker: BrokerHandle, ssd: SsdId) -> Self {
        BrokerGate {
            broker,
            ssd,
            lanes: Vec::new(),
            frontier: BinaryHeap::new(),
            next_seq: 0,
            parked: 0,
        }
    }

    fn charge(&self, req: &Request, now: SimTime) -> Charge {
        let flush = is_flush_id(req.cmd.id.0);
        self.broker
            .try_charge(self.ssd, req.cmd.tenant, req.cmd.len_bytes(), flush, now)
    }

    /// Open a poll round: every lane with parked work is retried.
    fn begin_round(&mut self) {
        self.frontier.clear();
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(&(seq, _)) = lane.q.front() {
                self.frontier.push(Reverse((seq, i)));
            }
        }
    }

    /// Retry the oldest parked request whose tenant has not been denied
    /// this round; `None` once every lane is empty or denied.
    fn retry_next(&mut self, now: SimTime) -> Option<Gate> {
        let Reverse((_, i)) = self.frontier.pop()?;
        let (_, req) = *self.lanes[i].q.front().expect("frontier lane has a head");
        Some(match self.charge(&req, now) {
            Charge::Granted => {
                let lane = &mut self.lanes[i];
                lane.q.pop_front();
                self.parked -= 1;
                if let Some(&(seq, _)) = lane.q.front() {
                    self.frontier.push(Reverse((seq, i)));
                }
                Gate::Pass(req)
            }
            // Dropped from the frontier: not touched again this round.
            Charge::Denied { retry_at } => Gate::Deny(retry_at),
        })
    }

    /// Meter a fresh policy submission. Only valid after this round's
    /// retry phase has run dry (see the type docs).
    fn admit(&mut self, req: Request, now: SimTime) -> Gate {
        let lane = self.lanes.iter().position(|l| l.tenant == req.cmd.tenant);
        let denied_before = lane.is_some_and(|i| !self.lanes[i].q.is_empty());
        let verdict = if denied_before {
            Gate::Queue
        } else {
            match self.charge(&req, now) {
                Charge::Granted => return Gate::Pass(req),
                Charge::Denied { retry_at } => Gate::Deny(retry_at),
            }
        };
        let i = lane.unwrap_or_else(|| {
            self.lanes.push(ParkLane {
                tenant: req.cmd.tenant,
                q: VecDeque::new(),
            });
            self.lanes.len() - 1
        });
        self.lanes[i].q.push_back((self.next_seq, req));
        self.next_seq += 1;
        self.parked += 1;
        verdict
    }
}

impl<D: StorageDevice> Pipeline<D> {
    /// Build a pipeline for `ssd` with a dedicated core.
    pub fn new(ssd: SsdId, device: D, policy: Box<dyn SwitchPolicy>, cfg: PipelineConfig) -> Self {
        Self::with_core(ssd, device, policy, cfg, Rc::new(RefCell::new(Core::new())))
    }

    /// Build a pipeline sharing `core` with other pipelines.
    pub fn with_core(
        ssd: SsdId,
        device: D,
        policy: Box<dyn SwitchPolicy>,
        cfg: PipelineConfig,
        core: Rc<RefCell<Core>>,
    ) -> Self {
        let cache = cfg
            .cache
            .as_ref()
            .filter(|c| c.enabled())
            .map(|c| SsdCache::new(ssd, c.clone()));
        let gate = cfg.broker.clone().map(|b| BrokerGate::new(b, ssd));
        Pipeline {
            ssd,
            device,
            policy,
            core,
            cfg,
            gate,
            cpl_buf: Vec::new(),
            flush_buf: Vec::new(),
            events: EventQueue::new(),
            inflight: DetMap::new(),
            outputs: Vec::new(),
            policy_wake: None,
            cache,
        }
    }

    /// Access the underlying device (for preconditioning and stats).
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Access the policy (for scheme-specific inspection in experiments).
    pub fn policy(&self) -> &dyn SwitchPolicy {
        self.policy.as_ref()
    }

    /// Attach a telemetry handle to the policy and the device; events are
    /// stamped with this pipeline's SSD id.
    pub fn attach_trace(&mut self, trace: gimbal_telemetry::TraceHandle) {
        self.policy.attach_trace(trace.clone(), self.ssd);
        if let Some(cache) = &mut self.cache {
            cache.attach_trace(trace.clone());
        }
        self.device.attach_trace(trace, self.ssd);
    }

    /// Counters of the cache tier, when one is configured.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Typed records of staged write data dropped on failed device writes
    /// (empty without a cache).
    pub fn cache_losses(&self) -> &[StagedWriteLoss] {
        self.cache.as_ref().map_or(&[], |c| c.losses())
    }

    /// The cache tier itself, for digest folding and inspection.
    pub fn cache(&self) -> Option<&SsdCache> {
        self.cache.as_ref()
    }

    /// Mutable access to the cache tier, e.g. to take its journal at the end
    /// of a run.
    pub fn cache_mut(&mut self) -> Option<&mut SsdCache> {
        self.cache.as_mut()
    }

    /// Repoint the pipeline at a different reactor core for its next poll
    /// quantum. The core scheduler (gimbal-cores) uses this to execute a
    /// saturated pipeline's quantum on an idle neighbor. Safe mid-run:
    /// internal events carry only ready timestamps, never a core
    /// reference, so already-charged work completes on schedule and only
    /// future CPU charges land on the new core.
    pub fn set_core(&mut self, core: Rc<RefCell<Core>>) {
        self.core = core;
    }

    /// A command capsule arrived (write payload already fetched). Charges
    /// submit-path CPU; the request becomes schedulable when that finishes.
    pub fn on_command(&mut self, cmd: NvmeCmd, now: SimTime) {
        let cycles = self
            .cfg
            .cpu_cost
            .submit_cycles(cmd.len_bytes(), self.cfg.null_device);
        let ready_at = self.core.borrow_mut().process(now, cycles);
        self.events
            .push(ready_at, PipeEv::ReqReady(Request { cmd, ready_at }));
    }

    /// A request finished its submit-path CPU. With a cache configured,
    /// reads that hit complete from NIC DRAM here — the policy (and with it
    /// Alg. 1's latency/rate accounting) never sees them — and writes either
    /// acknowledge from DRAM (write-back, partition permitting) or stage
    /// their lines before queueing for the device (write-through and the
    /// write-back pass-through valve). Misses and cache-less pipelines fall
    /// through to the policy unchanged.
    fn handle_ready(&mut self, req: Request, at: SimTime) {
        if let Some(cache) = &mut self.cache {
            match req.cmd.opcode {
                IoType::Read => {
                    if cache.try_read_hit(&req.cmd, at) {
                        self.emit_from_dram(req.cmd, at);
                        return;
                    }
                }
                IoType::Write => {
                    if cache.write_back_ack(&req.cmd, at) {
                        self.emit_from_dram(req.cmd, at);
                        return;
                    }
                    cache.stage_write(&req.cmd, at);
                }
            }
        }
        self.policy.on_arrival(req, at);
    }

    /// Complete `cmd` from NIC DRAM (read hit or write-back ack): charge the
    /// DRAM-copy latency plus completion-path CPU and emit the capsule. The
    /// policy — and the device — never see the command.
    fn emit_from_dram(&mut self, cmd: NvmeCmd, at: SimTime) {
        assert!(self.cache.is_some(), "DRAM completion needs a cache");
        let ready = at + HIT_LATENCY;
        let cycles = self
            .cfg
            .cpu_cost
            .complete_cycles(cmd.len_bytes(), self.cfg.null_device);
        let done = self.core.borrow_mut().process(ready, cycles);
        let credit = self.policy.credit_for(cmd.tenant);
        self.events.push(
            done,
            PipeEv::Emit(PipelineOut {
                cmd,
                status: CmdStatus::Success,
                credit,
                device_latency: HIT_LATENCY,
                at: done,
                served_from_cache: true,
            }),
        );
    }

    /// Hand the cache's due flush writes to the policy as LOW-priority
    /// requests. Flush ids live in the disjoint [`gimbal_cache::FLUSH_ID_BASE`]
    /// space: their completions are intercepted in [`Self::poll`] and never
    /// leave the target as capsules, but they do flow through the policy's
    /// DRR queues and Alg. 1 accounting like any other device write.
    fn pump_flusher(&mut self, now: SimTime) {
        let Some(cache) = &mut self.cache else { return };
        cache.take_flushes_into(now, &mut self.flush_buf);
        for f in self.flush_buf.drain(..) {
            let cmd = NvmeCmd {
                id: CmdId(f.id),
                tenant: f.tenant,
                ssd: self.ssd,
                opcode: IoType::Write,
                lba: f.lba,
                len: f.len,
                priority: Priority::LOW,
                issued_at: now,
                wal: f.wal,
            };
            self.policy.on_arrival(Request { cmd, ready_at: now }, now);
        }
    }

    /// Process everything due at or before `now`.
    pub fn poll(&mut self, now: SimTime) {
        // Internal events: arrivals finishing CPU, completions finishing CPU.
        while self.events.peek_time().is_some_and(|t| t <= now) {
            let (at, ev) = self.events.pop().unwrap();
            match ev {
                PipeEv::ReqReady(req) => self.handle_ready(req, at),
                PipeEv::Emit(out) => self.outputs.push(out),
            }
        }
        // Device completions, drained into the recycled buffer.
        let mut completions = std::mem::take(&mut self.cpl_buf);
        self.device.poll_into(now, &mut completions);
        for c in completions.drain(..) {
            let cmd = self
                .inflight
                .remove(&c.tag)
                .expect("completion for unknown command");
            if is_flush_id(c.tag) {
                // A cache-flusher write: feed the policy's accounting and
                // the cache, but emit no capsule — no initiator is waiting.
                let info = CompletionInfo {
                    cmd,
                    device_latency: c.latency(),
                    completed_at: c.completed_at,
                    failed: c.failed,
                };
                self.policy.on_completion(&info, c.completed_at);
                if c.failed && self.device.is_failed() {
                    if let Some(cache) = &mut self.cache {
                        cache.on_device_death(c.completed_at);
                    }
                }
                if let Some(cache) = &mut self.cache {
                    cache.on_flush_completion(c.tag, c.failed, c.completed_at);
                }
                continue;
            }
            let info = CompletionInfo {
                cmd,
                device_latency: c.latency(),
                completed_at: c.completed_at,
                failed: c.failed,
            };
            self.policy.on_completion(&info, c.completed_at);
            if let Some(cache) = &mut self.cache {
                if c.failed && self.device.is_failed() {
                    // Surface acked-but-unflushed write-back lines before
                    // reconciling this completion: the flusher can never
                    // reach flash again.
                    cache.on_device_death(c.completed_at);
                }
                match cmd.opcode {
                    IoType::Read => {
                        cache.on_read_completion(&cmd, c.latency(), c.failed, c.completed_at);
                    }
                    IoType::Write => cache.on_write_completion(&cmd, c.failed, c.completed_at),
                }
            }
            let cycles = self
                .cfg
                .cpu_cost
                .complete_cycles(cmd.len_bytes(), self.cfg.null_device);
            let done = self.core.borrow_mut().process(c.completed_at, cycles);
            let credit = self.policy.credit_for(cmd.tenant);
            self.events.push(
                done,
                PipeEv::Emit(PipelineOut {
                    cmd,
                    status: if c.failed {
                        CmdStatus::DeviceError
                    } else {
                        CmdStatus::Success
                    },
                    credit,
                    device_latency: c.latency(),
                    at: done,
                    served_from_cache: false,
                }),
            );
        }
        self.cpl_buf = completions;
        // Issue due flush writes so they join this round's policy drain.
        self.pump_flusher(now);
        // Drain submissions, metering each through the broker ledger when
        // one is attached. Denials park *per tenant*: a tenant out of
        // tokens holds only its own requests (in FIFO order) while every
        // other tenant keeps flowing — a global park would let one broke
        // tenant head-of-line-block the whole SSD for its entire refill
        // lockout. Parked requests are retried first, oldest first; once a
        // tenant is denied in a poll round, its later requests park
        // unexamined to preserve per-tenant submit order.
        self.policy_wake = None;
        if let Some(gate) = &mut self.gate {
            gate.begin_round();
        }
        while let Some(verdict) = self.gate.as_mut().and_then(|g| g.retry_next(now)) {
            self.apply_gate(verdict, now);
        }
        loop {
            let req = match self.policy.next_submission(now, self.device.inflight()) {
                PolicyPoll::Submit(req) => req,
                PolicyPoll::WaitUntil(t) => {
                    debug_assert!(t > now, "WaitUntil must be in the future");
                    self.bump_wake(t, now);
                    break;
                }
                PolicyPoll::Idle => break,
            };
            match &mut self.gate {
                None => self.submit_to_device(req, now),
                Some(gate) => {
                    let verdict = gate.admit(req, now);
                    self.apply_gate(verdict, now);
                }
            }
        }
        // Completion CPU may have finished within `now` (zero-cost models).
        while self.events.peek_time().is_some_and(|t| t <= now) {
            let (at, ev) = self.events.pop().unwrap();
            match ev {
                PipeEv::ReqReady(req) => self.handle_ready(req, at),
                PipeEv::Emit(out) => self.outputs.push(out),
            }
        }
    }

    /// Act on a broker-gate verdict: submit what passed, wake for what was
    /// freshly denied.
    fn apply_gate(&mut self, verdict: Gate, now: SimTime) {
        match verdict {
            Gate::Pass(req) => self.submit_to_device(req, now),
            Gate::Deny(retry_at) => self.bump_wake(retry_at, now),
            Gate::Queue => {}
        }
    }

    /// Hand a gated submission to the device and start tracking it.
    fn submit_to_device(&mut self, req: Request, now: SimTime) {
        self.inflight.insert(req.cmd.id.0, req.cmd);
        self.device.submit(
            req.cmd.id.0,
            req.cmd.opcode,
            req.cmd.lba,
            req.cmd.len_bytes(),
            now,
        );
    }

    /// Pull the policy wake earlier (never before `now + 1ns`).
    fn bump_wake(&mut self, at: SimTime, now: SimTime) {
        let at = at.max(now + SimDuration::from_nanos(1));
        self.policy_wake = Some(self.policy_wake.map_or(at, |w| w.min(at)));
    }

    /// Earliest instant at which [`Pipeline::poll`] will have work. A
    /// flusher due time in the past means "due now"; callers poll with
    /// their current time, which [`Self::poll`] handles monotonically.
    pub fn next_event_at(&self) -> Option<SimTime> {
        let mut t = self.events.peek_time();
        let flush_due = self.cache.as_ref().and_then(|c| c.next_flush_due());
        for cand in [self.device.next_event_at(), self.policy_wake, flush_due] {
            t = match (t, cand) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, None) => a,
                (None, b) => b,
            };
        }
        t
    }

    /// Simulated NIC power loss at `now`: the cache tier (and with it every
    /// write-back dirty line) goes cold, surfacing dirty-tagged losses. A
    /// cache-less pipeline is unaffected — the fabric, policy, and device
    /// live outside the lost power domain in this model.
    pub fn power_loss(&mut self, now: SimTime) {
        if let Some(cache) = &mut self.cache {
            cache.power_loss(now);
        }
    }

    /// Take all completion capsules produced since the last call.
    pub fn take_outputs(&mut self) -> Vec<PipelineOut> {
        std::mem::take(&mut self.outputs)
    }

    /// [`Self::take_outputs`] without the allocation: swap the capsules
    /// produced since the last call into `buf` (cleared first), keeping
    /// `buf`'s old allocation as the pipeline's next output buffer. A
    /// caller that drains `buf` and passes it back every pump allocates
    /// nothing in steady state.
    pub fn take_outputs_into(&mut self, buf: &mut Vec<PipelineOut>) {
        buf.clear();
        std::mem::swap(&mut self.outputs, buf);
    }

    /// Commands accepted but not yet emitted as completions.
    pub fn in_progress(&self) -> usize {
        let parked = self.gate.as_ref().map_or(0, |g| g.parked);
        self.inflight.len() + self.policy.queued() + self.events.len() + parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FifoPolicy;
    use gimbal_fabric::{CmdId, IoType, Priority, TenantId};
    use gimbal_ssd::NullDevice;

    fn cmd(id: u64, issued: SimTime) -> NvmeCmd {
        NvmeCmd {
            id: CmdId(id),
            tenant: TenantId(0),
            ssd: SsdId(0),
            opcode: IoType::Read,
            lba: 0,
            len: 4096,
            priority: Priority::NORMAL,
            issued_at: issued,
            wal: None,
        }
    }

    fn drive_until_idle(p: &mut Pipeline<NullDevice>) -> Vec<PipelineOut> {
        let mut out = Vec::new();
        let mut guard = 0;
        while let Some(t) = p.next_event_at() {
            p.poll(t);
            out.extend(p.take_outputs());
            guard += 1;
            assert!(guard < 1_000_000, "pipeline did not quiesce");
        }
        out
    }

    #[test]
    fn command_flows_through() {
        let cfg = PipelineConfig {
            cpu_cost: CpuCost::arm_vanilla(),
            null_device: true,
            cache: None,
            broker: None,
        };
        let mut p = Pipeline::new(
            SsdId(0),
            NullDevice::new(),
            Box::new(FifoPolicy::new()),
            cfg,
        );
        p.on_command(cmd(1, SimTime::ZERO), SimTime::ZERO);
        let outs = drive_until_idle(&mut p);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].cmd.id, CmdId(1));
        assert!(outs[0].status.is_success());
        // CPU time elapsed: submit + complete cycles ≈ 1.07 µs total.
        assert!(outs[0].at > SimTime::ZERO);
        assert!(outs[0].at.as_micros() <= 3);
    }

    #[test]
    fn cpu_caps_null_device_throughput_like_table_1b() {
        // Blast 4 KB reads at one ARM core + NULL device; completion rate
        // should approach Table 1b's 937 KIOPS for vanilla SPDK.
        let cfg = PipelineConfig {
            cpu_cost: CpuCost::arm_vanilla(),
            null_device: true,
            cache: None,
            broker: None,
        };
        let mut p = Pipeline::new(
            SsdId(0),
            NullDevice::new(),
            Box::new(FifoPolicy::new()),
            cfg,
        );
        let horizon = SimTime::from_millis(50);
        // Closed loop with plenty of outstanding commands.
        let mut next_id = 0u64;
        for _ in 0..64 {
            p.on_command(cmd(next_id, SimTime::ZERO), SimTime::ZERO);
            next_id += 1;
        }
        let mut done = 0u64;
        while let Some(t) = p.next_event_at() {
            if t > horizon {
                break;
            }
            p.poll(t);
            for _ in p.take_outputs() {
                done += 1;
                p.on_command(cmd(next_id, t), t);
                next_id += 1;
            }
        }
        let kiops = done as f64 / horizon.as_secs_f64() / 1e3;
        assert!(
            (850.0..1000.0).contains(&kiops),
            "null-device vanilla {kiops:.0} KIOPS (Table 1b: 937)"
        );
    }

    #[test]
    fn outputs_carry_device_latency() {
        let cfg = PipelineConfig {
            cpu_cost: CpuCost::arm_vanilla(),
            null_device: true,
            cache: None,
            broker: None,
        };
        let mut p = Pipeline::new(
            SsdId(0),
            NullDevice::with_delay(SimDuration::from_micros(50)),
            Box::new(FifoPolicy::new()),
            cfg,
        );
        p.on_command(cmd(1, SimTime::ZERO), SimTime::ZERO);
        let outs = drive_until_idle(&mut p);
        assert_eq!(outs[0].device_latency, SimDuration::from_micros(50));
    }

    #[test]
    fn shared_core_couples_pipelines() {
        // Two pipelines on one core: total throughput halves per pipeline.
        let core = Rc::new(RefCell::new(Core::new()));
        let cfg = PipelineConfig {
            cpu_cost: CpuCost::arm_vanilla(),
            null_device: true,
            cache: None,
            broker: None,
        };
        let mut a = Pipeline::with_core(
            SsdId(0),
            NullDevice::new(),
            Box::new(FifoPolicy::new()),
            cfg.clone(),
            Rc::clone(&core),
        );
        let mut b = Pipeline::with_core(
            SsdId(1),
            NullDevice::new(),
            Box::new(FifoPolicy::new()),
            cfg,
            core,
        );
        let horizon = SimTime::from_millis(20);
        let mut id = 0u64;
        for _ in 0..32 {
            a.on_command(cmd(id, SimTime::ZERO), SimTime::ZERO);
            id += 1;
            b.on_command(cmd(id, SimTime::ZERO), SimTime::ZERO);
            id += 1;
        }
        let mut done = [0u64; 2];
        loop {
            let ta = a.next_event_at();
            let tb = b.next_event_at();
            let (which, t) = match (ta, tb) {
                (Some(x), Some(y)) if x <= y => (0, x),
                (_, Some(y)) => (1, y),
                (Some(x), None) => (0, x),
                (None, None) => break,
            };
            if t > horizon {
                break;
            }
            let p = if which == 0 { &mut a } else { &mut b };
            p.poll(t);
            for _ in p.take_outputs() {
                done[which] += 1;
                p.on_command(cmd(id, t), t);
                id += 1;
            }
        }
        let total = (done[0] + done[1]) as f64 / horizon.as_secs_f64() / 1e3;
        assert!(
            (850.0..1000.0).contains(&total),
            "shared core total {total:.0} KIOPS"
        );
        let ratio = done[0] as f64 / done[1] as f64;
        assert!((0.7..1.4).contains(&ratio), "roughly fair split {ratio}");
    }

    #[test]
    fn repeated_read_hits_in_cache_and_bypasses_device() {
        use gimbal_cache::{AdmissionPolicy, CacheConfig};
        let cfg = PipelineConfig {
            cpu_cost: CpuCost::arm_vanilla(),
            null_device: false,
            cache: Some(CacheConfig {
                capacity_bytes: 1024 * 4096,
                policy: AdmissionPolicy::Always,
                ..CacheConfig::default()
            }),
            broker: None,
        };
        let mut p = Pipeline::new(
            SsdId(0),
            NullDevice::with_delay(SimDuration::from_micros(90)),
            Box::new(FifoPolicy::new()),
            cfg,
        );
        p.on_command(cmd(1, SimTime::ZERO), SimTime::ZERO);
        let first = drive_until_idle(&mut p);
        assert!(!first[0].served_from_cache, "cold read goes to the device");
        assert_eq!(first[0].device_latency, SimDuration::from_micros(90));

        let t1 = first[0].at;
        p.on_command(cmd(2, t1), t1);
        let second = drive_until_idle(&mut p);
        assert!(second[0].served_from_cache, "refill made the re-read a hit");
        assert!(
            second[0].device_latency < SimDuration::from_micros(90),
            "hit latency is the DRAM copy, not the device"
        );
        let stats = p.cache_stats().expect("cache configured");
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.fills, 1);
    }

    #[test]
    fn broker_gate_meters_submissions_and_preserves_order() {
        use gimbal_broker::{BrokerConfig, BrokerHandle};
        use gimbal_telemetry::TraceHandle;
        let bcfg = BrokerConfig {
            capacity_bps: 1_000_000, // 1 MB/s
            burst_bytes: 128 * 1024,
            ..BrokerConfig::default()
        };
        let broker = BrokerHandle::new(bcfg, TraceHandle::disabled());
        let cfg = PipelineConfig {
            cpu_cost: CpuCost::arm_vanilla(),
            null_device: true,
            cache: None,
            broker: Some(broker.clone()),
        };
        let mut p = Pipeline::new(
            SsdId(0),
            NullDevice::new(),
            Box::new(FifoPolicy::new()),
            cfg,
        );
        // First command drains the whole burst; the second must park until
        // the refill covers it (4096 B at 1 MB/s = 4.096 ms).
        let mut big = cmd(1, SimTime::ZERO);
        big.len = 128 * 1024;
        p.on_command(big, SimTime::ZERO);
        p.on_command(cmd(2, SimTime::ZERO), SimTime::ZERO);
        let outs = drive_until_idle(&mut p);
        assert_eq!(outs.len(), 2, "parked command must not be lost");
        assert_eq!(outs[0].cmd.id, CmdId(1));
        assert_eq!(outs[1].cmd.id, CmdId(2));
        assert!(
            outs[1].at >= SimTime::from_millis(4),
            "second command should wait for refill, completed at {}",
            outs[1].at
        );
        let st = broker.stats();
        assert_eq!(st.charged_bytes, 128 * 1024 + 4096);
        assert!(st.denials >= 1);
    }

    #[test]
    fn zero_capacity_cache_config_builds_no_cache() {
        use gimbal_cache::CacheConfig;
        let cfg = PipelineConfig {
            cpu_cost: CpuCost::arm_vanilla(),
            null_device: true,
            cache: Some(CacheConfig {
                capacity_bytes: 0,
                ..CacheConfig::default()
            }),
            broker: None,
        };
        let p = Pipeline::new(
            SsdId(0),
            NullDevice::new(),
            Box::new(FifoPolicy::new()),
            cfg,
        );
        assert!(p.cache().is_none(), "zero capacity must mean no cache");
        assert!(p.cache_stats().is_none());
        assert!(p.cache_losses().is_empty());
    }
}
