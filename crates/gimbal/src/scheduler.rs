//! The two-level hierarchical IO scheduler (§3.5, Algorithm 2).
//!
//! **Level 1 — inter-tenant DRR in virtual-slot units.** Tenants with queued
//! requests live on an *active* list served deficit-round-robin with a
//! quantum of one virtual slot (128 KiB). Write IOs charge their
//! *cost-weighted* size (`write_cost × size`), so a 128 KiB write at cost 3
//! waits three rounds — exactly the paper's example.
//!
//! **Virtual slots.** A slot is a bundle of up to 128 KiB of submitted IO
//! (1 × 128 KiB or 32 × 4 KiB); it completes when *all* of its IOs complete.
//! Each tenant holds at most `slots_per_tenant / contending_tenants` slots
//! (minimum one). A tenant whose slots are all in flight moves to the
//! *deferred* list with its deficit cleared — its allocation cannot be
//! stolen (no deceptive idleness), and it rejoins the active tail when a
//! slot frees.
//!
//! **Level 2 — per-tenant priority queues.** Within a tenant, requests are
//! drawn from three client-tagged priority queues by weighted round-robin,
//! letting latency-sensitive IOs overtake bulk traffic without starving it.

#![deny(clippy::cast_possible_truncation)]

use crate::params::Params;
use gimbal_fabric::{CmdId, IoType, Priority, SsdId, TenantId};
use gimbal_sim::cast;
use gimbal_sim::collections::DetMap;
use gimbal_sim::SimTime;
use gimbal_switch::Request;
use gimbal_telemetry::{EventKind, TraceHandle};
use std::collections::VecDeque;

/// Outcome of a scheduling attempt.
#[derive(Clone, Copy, Debug)]
pub enum SchedPoll {
    /// This request is cleared to submit (already accounted into a slot).
    Submit(Request),
    /// The head-of-line request lacks rate-pacer tokens; nothing else may
    /// overtake it (the DRR does not reorder, Appendix C.1).
    Blocked {
        /// Opcode of the blocked request.
        io_type: IoType,
        /// Its size in bytes.
        size: u64,
    },
    /// No tenant has a schedulable request (all idle or deferred).
    Empty,
}

#[derive(Clone, Copy, Debug, Default)]
struct VSlot {
    in_use: bool,
    full: bool,
    submits: u32,
    completions: u32,
    weighted_bytes: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ListState {
    Idle,
    Active,
    Deferred,
}

struct Tenant {
    queues: [VecDeque<Request>; Priority::LEVELS],
    wrr_remaining: [u32; Priority::LEVELS],
    deficit: f64,
    slots: Vec<VSlot>,
    open_slot: Option<usize>,
    state: ListState,
    last_completed_slot_ios: u32,
    queued: usize,
    outstanding: u32,
}

impl Tenant {
    fn new(params: &Params) -> Self {
        Tenant {
            queues: Default::default(),
            wrr_remaining: params.priority_weights,
            deficit: 0.0,
            slots: vec![VSlot::default(); params.slots_per_tenant as usize],
            open_slot: None,
            state: ListState::Idle,
            last_completed_slot_ios: params.initial_credit_ios,
            queued: 0,
            outstanding: 0,
        }
    }

    fn slots_in_use(&self) -> u32 {
        cast::usize_to_u32(self.slots.iter().filter(|s| s.in_use).count())
    }

    /// Weighted round-robin pick of the next non-empty priority level.
    fn current_level(&mut self, weights: [u32; Priority::LEVELS]) -> Option<usize> {
        let nonempty = |qs: &[VecDeque<Request>]| qs.iter().any(|q| !q.is_empty());
        if !nonempty(&self.queues) {
            return None;
        }
        for lvl in 0..Priority::LEVELS {
            if !self.queues[lvl].is_empty() && self.wrr_remaining[lvl] > 0 {
                return Some(lvl);
            }
        }
        // Exhausted the round: start a new one.
        self.wrr_remaining = weights;
        (0..Priority::LEVELS).find(|&lvl| !self.queues[lvl].is_empty())
    }
}

/// Cost-weighted size of a request: writes charge `write_cost × size` (§3.5).
fn weighted_size(req: &Request, write_cost: f64) -> f64 {
    let len = req.cmd.len_bytes() as f64;
    match req.cmd.opcode {
        IoType::Read => len,
        IoType::Write => len * write_cost,
    }
}

/// The virtual-slot DRR scheduler for one SSD pipeline.
pub struct VirtualSlotScheduler {
    params: Params,
    tenants: DetMap<TenantId, Tenant>,
    active: VecDeque<TenantId>,
    /// Maps an in-flight command to (tenant, slot index).
    inflight: DetMap<CmdId, (TenantId, usize)>,
    /// Tenants with queued or outstanding IO. Moves only where a tenant
    /// enters that set (`on_arrival`) or leaves it (`on_completion`).
    contending: u32,
    trace: TraceHandle,
    trace_ssd: SsdId,
}

impl VirtualSlotScheduler {
    /// Create an empty scheduler.
    pub fn new(params: Params) -> Self {
        params.validate();
        VirtualSlotScheduler {
            params,
            tenants: DetMap::new(),
            active: VecDeque::new(),
            inflight: DetMap::new(),
            contending: 0,
            trace: TraceHandle::disabled(),
            trace_ssd: SsdId(0),
        }
    }

    /// Attach a telemetry handle; events carry `ssd` as their origin.
    pub(crate) fn attach_trace(&mut self, trace: TraceHandle, ssd: SsdId) {
        self.trace = trace;
        self.trace_ssd = ssd;
    }

    fn ensure_tenant(&mut self, id: TenantId) {
        if !self.tenants.contains_key(&id) {
            self.tenants.insert(id, Tenant::new(&self.params));
        }
    }

    /// Per-tenant slot allotment: equal split of the threshold among the
    /// contending tenants (queued or in-flight IO), minimum one (so the
    /// total may exceed the threshold under high consolidation).
    pub(crate) fn slot_limit(&self) -> u32 {
        (self.params.slots_per_tenant / self.contending.max(1)).max(1)
    }

    /// Enqueue an arriving request into its tenant's priority queue.
    pub fn on_arrival(&mut self, req: Request, _now: SimTime) {
        self.ensure_tenant(req.cmd.tenant);
        let t = self.tenants.get_mut(&req.cmd.tenant).unwrap();
        if t.queued == 0 && t.outstanding == 0 {
            self.contending += 1;
        }
        t.queues[req.cmd.priority.0.min(2) as usize].push_back(req);
        t.queued += 1;
        if t.state == ListState::Idle {
            t.state = ListState::Active;
            self.active.push_back(req.cmd.tenant);
        }
    }

    /// Try to open a fresh virtual slot for `id`; returns whether one opened.
    fn open_slot(&mut self, id: TenantId, now: SimTime) -> bool {
        let limit = self.slot_limit();
        let t = self.tenants.get_mut(&id).unwrap();
        if t.slots_in_use() >= limit {
            return false;
        }
        let idx = match t.slots.iter().position(|s| !s.in_use) {
            Some(i) => i,
            None => return false,
        };
        t.slots[idx] = VSlot {
            in_use: true,
            ..VSlot::default()
        };
        t.open_slot = Some(idx);
        self.trace.record(
            now,
            self.trace_ssd,
            Some(id),
            EventKind::SlotOpened {
                slot: cast::usize_to_u32(idx),
            },
        );
        true
    }

    /// One DRR scheduling step. `token_check` is the rate pacer's gate: it
    /// is consulted once a request is deficit-eligible, and if it refuses,
    /// the request stays at the head (no reordering) and the caller gets
    /// [`SchedPoll::Blocked`].
    pub fn dequeue<F>(&mut self, now: SimTime, write_cost: f64, mut token_check: F) -> SchedPoll
    where
        F: FnMut(&Request) -> bool,
    {
        // Deficits grow by one quantum per rotation and the costliest
        // request is `write_cost_worst` quanta, so this many visits
        // guarantees progress or emptiness.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "write_cost_worst is validated ≥ 1 and small; the budget only bounds the visits"
        )]
        let mut budget = (self.params.write_cost_worst as usize + 2) * (self.active.len() + 1);
        while budget > 0 {
            budget -= 1;
            let Some(&tid) = self.active.front() else {
                return SchedPoll::Empty;
            };
            // Idle tenants leave the list.
            if self.tenants.get(&tid).expect("active tenant exists").queued == 0 {
                self.active.pop_front();
                let t = self.tenants.get_mut(&tid).unwrap();
                t.state = ListState::Idle;
                t.deficit = 0.0;
                continue;
            }
            // A tenant needs an open slot to be scheduled.
            if self
                .tenants
                .get(&tid)
                .expect("active tenant exists")
                .open_slot
                .is_none()
                && !self.open_slot(tid, now)
            {
                self.active.pop_front();
                let t = self.tenants.get_mut(&tid).unwrap();
                t.state = ListState::Deferred;
                t.deficit = 0.0; // Algorithm 2: deficit cleared when deferred
                let queued = cast::usize_to_u32(t.queued);
                self.trace.record(
                    now,
                    self.trace_ssd,
                    Some(tid),
                    EventKind::TenantDeferred { queued },
                );
                continue;
            }
            let weights = self.params.priority_weights;
            let slot_bytes = self.params.slot_bytes as f64;
            let quantum = self.params.quantum();
            let t = self.tenants.get_mut(&tid).unwrap();
            let lvl = t.current_level(weights).expect("queued > 0");
            let req = *t.queues[lvl].front().expect("level chosen non-empty");
            let w = weighted_size(&req, write_cost);
            if t.deficit >= w {
                if !token_check(&req) {
                    return SchedPoll::Blocked {
                        io_type: req.cmd.opcode,
                        size: req.cmd.len_bytes(),
                    };
                }
                // Commit: pop, charge deficit, account into the open slot.
                let t = self.tenants.get_mut(&tid).unwrap();
                t.queues[lvl].pop_front();
                t.wrr_remaining[lvl] = t.wrr_remaining[lvl].saturating_sub(1);
                t.queued -= 1;
                t.deficit -= w;
                t.outstanding += 1;
                let slot_idx = t.open_slot.expect("ensured above");
                let slot = &mut t.slots[slot_idx];
                slot.submits += 1;
                slot.weighted_bytes += w;
                if slot.weighted_bytes >= slot_bytes {
                    slot.full = true;
                    let submits = slot.submits;
                    t.open_slot = None; // next dequeue opens/defers as needed
                    self.trace.record(
                        now,
                        self.trace_ssd,
                        Some(tid),
                        EventKind::SlotClosed {
                            slot: cast::usize_to_u32(slot_idx),
                            submits,
                        },
                    );
                }
                self.inflight.insert(req.cmd.id, (tid, slot_idx));
                return SchedPoll::Submit(req);
            }
            // Not enough deficit: add a quantum and rotate.
            t.deficit += quantum;
            self.active.rotate_left(1);
        }
        debug_assert!(false, "DRR budget exhausted — scheduling bug");
        SchedPoll::Empty
    }

    /// Record a completion (Algorithm 2's `Sched_Complete`): frees the slot
    /// when its bundle fully completes and reactivates a deferred tenant.
    pub fn on_completion(&mut self, id: CmdId, now: SimTime) {
        let Some((tid, slot_idx)) = self.inflight.remove(&id) else {
            return;
        };
        let t = self.tenants.get_mut(&tid).unwrap();
        t.outstanding -= 1;
        if t.queued == 0 && t.outstanding == 0 {
            self.contending -= 1;
        }
        let slot = &mut t.slots[slot_idx];
        slot.completions += 1;
        if slot.full && slot.submits == slot.completions {
            // Smooth the per-slot IO count (mixed-size tenants close some
            // slots with one large write and others with 32 small reads; the
            // raw latest value would yo-yo the credit grant).
            t.last_completed_slot_ios = cast::u64_to_u32(
                ((3 * u64::from(t.last_completed_slot_ios) + u64::from(slot.submits)) / 4).max(1),
            );
            *slot = VSlot::default(); // freed
            let credit_ios = t.last_completed_slot_ios;
            self.trace.record(
                now,
                self.trace_ssd,
                Some(tid),
                EventKind::SlotFreed {
                    slot: cast::usize_to_u32(slot_idx),
                    credit_ios,
                },
            );
            let t = self.tenants.get_mut(&tid).unwrap();
            if t.state == ListState::Deferred {
                t.state = ListState::Active;
                self.active.push_back(tid);
                self.trace
                    .record(now, self.trace_ssd, Some(tid), EventKind::TenantResumed);
            }
        }
    }

    /// The credit grant for a tenant (§3.6): allotted slots × IO count of
    /// the latest completed slot.
    pub(crate) fn credit_for(&self, tenant: TenantId) -> u32 {
        let limit = self.slot_limit();
        match self.tenants.get(&tenant) {
            Some(t) => limit.saturating_mul(t.last_completed_slot_ios).max(1),
            None => limit * self.params.initial_credit_ios,
        }
    }

    /// Total requests queued across tenants.
    pub fn queued(&self) -> usize {
        self.tenants.values().map(|t| t.queued).sum()
    }
}

#[cfg(test)]
impl VirtualSlotScheduler {
    /// Whether a tenant currently sits on the deferred list (tests).
    pub(crate) fn is_deferred(&self, tenant: TenantId) -> bool {
        self.tenants
            .get(&tenant)
            .is_some_and(|t| t.state == ListState::Deferred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gimbal_fabric::{NvmeCmd, SsdId};

    fn req_full(id: u64, tenant: u32, op: IoType, len: u32, prio: Priority) -> Request {
        Request {
            cmd: NvmeCmd {
                id: CmdId(id),
                tenant: TenantId(tenant),
                ssd: SsdId(0),
                opcode: op,
                lba: 0,
                len,
                priority: prio,
                issued_at: SimTime::ZERO,
                wal: None,
            },
            ready_at: SimTime::ZERO,
        }
    }

    fn req(id: u64, tenant: u32, op: IoType, len: u32) -> Request {
        req_full(id, tenant, op, len, Priority::NORMAL)
    }

    fn sched() -> VirtualSlotScheduler {
        VirtualSlotScheduler::new(Params::default())
    }

    fn drain(s: &mut VirtualSlotScheduler, wc: f64, max: usize) -> Vec<Request> {
        let mut out = Vec::new();
        for _ in 0..max {
            match s.dequeue(SimTime::ZERO, wc, |_| true) {
                SchedPoll::Submit(r) => out.push(r),
                _ => break,
            }
        }
        out
    }

    #[test]
    fn single_tenant_submits_in_order() {
        let mut s = sched();
        for i in 0..4 {
            s.on_arrival(req(i, 0, IoType::Read, 4096), SimTime::ZERO);
        }
        let subs = drain(&mut s, 1.0, 10);
        let ids: Vec<u64> = subs.iter().map(|r| r.cmd.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn drr_alternates_between_equal_tenants() {
        let mut s = sched();
        for i in 0..8 {
            s.on_arrival(
                req(i, (i % 2) as u32, IoType::Read, 128 * 1024),
                SimTime::ZERO,
            );
        }
        let subs = drain(&mut s, 1.0, 20);
        // 128 KB IOs = exactly one quantum each: strict alternation.
        let tenants: Vec<u32> = subs.iter().map(|r| r.cmd.tenant.0).collect();
        assert_eq!(subs.len(), 8);
        for w in tenants.windows(2) {
            assert_ne!(w[0], w[1], "alternation violated: {tenants:?}");
        }
    }

    #[test]
    fn small_ios_get_proportionally_more_requests() {
        // One tenant sends 4 KB, the other 128 KB; over a window the bytes
        // scheduled per tenant should be equal (same cost), i.e. 32× more
        // small IOs.
        let mut s = sched();
        let mut id = 0;
        for _ in 0..64 {
            s.on_arrival(req(id, 0, IoType::Read, 4096), SimTime::ZERO);
            id += 1;
        }
        for _ in 0..2 {
            s.on_arrival(req(id, 1, IoType::Read, 128 * 1024), SimTime::ZERO);
            id += 1;
        }
        let subs = drain(&mut s, 1.0, 100);
        let bytes0: u64 = subs
            .iter()
            .filter(|r| r.cmd.tenant.0 == 0)
            .map(|r| r.cmd.len_bytes())
            .sum();
        let bytes1: u64 = subs
            .iter()
            .filter(|r| r.cmd.tenant.0 == 1)
            .map(|r| r.cmd.len_bytes())
            .sum();
        assert_eq!(bytes0, bytes1, "byte-fair across IO sizes");
    }

    #[test]
    fn write_cost_weights_drr() {
        // At write cost 3, a write tenant should receive ~1/3 the bytes of a
        // read tenant over a steady stream (completions recycle the slots so
        // the deficit weighting, not slot exhaustion, governs the split).
        let mut s = sched();
        let mut id = 0;
        for _ in 0..200 {
            s.on_arrival(req(id, 0, IoType::Read, 128 * 1024), SimTime::ZERO);
            id += 1;
            s.on_arrival(req(id, 1, IoType::Write, 128 * 1024), SimTime::ZERO);
            id += 1;
        }
        let (mut reads, mut writes) = (0f64, 0f64);
        for _ in 0..200 {
            match s.dequeue(SimTime::ZERO, 3.0, |_| true) {
                SchedPoll::Submit(r) => {
                    if r.cmd.opcode.is_read() {
                        reads += 1.0;
                    } else {
                        writes += 1.0;
                    }
                    // Complete immediately: slots never run out.
                    s.on_completion(r.cmd.id, SimTime::ZERO);
                }
                _ => break,
            }
        }
        let ratio = reads / writes.max(1.0);
        assert!(
            (2.5..3.6).contains(&ratio),
            "read:write submissions {reads}:{writes}"
        );
    }

    #[test]
    fn tenant_defers_when_slots_exhausted_and_reactivates() {
        let mut s = sched();
        // Single tenant: 8 slots × 128 KB. Submit 9 × 128 KB: the 9th must
        // block behind slot completion.
        for i in 0..9 {
            s.on_arrival(req(i, 0, IoType::Read, 128 * 1024), SimTime::ZERO);
        }
        let subs = drain(&mut s, 1.0, 20);
        assert_eq!(subs.len(), 8, "slot threshold caps submissions");
        assert!(s.is_deferred(TenantId(0)));
        assert!(matches!(
            s.dequeue(SimTime::ZERO, 1.0, |_| true),
            SchedPoll::Empty
        ));
        // Completing one IO frees its (full) slot; the tenant reactivates.
        s.on_completion(CmdId(0), SimTime::ZERO);
        assert!(!s.is_deferred(TenantId(0)));
        let more = drain(&mut s, 1.0, 5);
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].cmd.id, CmdId(8));
    }

    #[test]
    fn slot_bundles_many_small_ios() {
        let mut s = sched();
        // 8 slots × 32 × 4 KB = 256 submittable small IOs before deferral.
        for i in 0..300 {
            s.on_arrival(req(i, 0, IoType::Read, 4096), SimTime::ZERO);
        }
        let subs = drain(&mut s, 1.0, 400);
        assert_eq!(subs.len(), 256);
        assert!(s.is_deferred(TenantId(0)));
        // Completing one partial bundle does nothing; completing a full
        // slot's 32 IOs frees it.
        for i in 0..32 {
            s.on_completion(CmdId(i), SimTime::ZERO);
        }
        assert!(!s.is_deferred(TenantId(0)));
        assert_eq!(drain(&mut s, 1.0, 400).len(), 32);
    }

    #[test]
    fn slots_split_across_contending_tenants() {
        let mut s = sched();
        let mut id = 0;
        for t in 0..4 {
            for _ in 0..20 {
                s.on_arrival(req(id, t, IoType::Read, 128 * 1024), SimTime::ZERO);
                id += 1;
            }
        }
        assert_eq!(s.slot_limit(), 2, "8 slots / 4 tenants");
        let subs = drain(&mut s, 1.0, 100);
        assert_eq!(subs.len(), 8, "2 slots × 4 tenants");
        for t in 0..4 {
            let n = subs.iter().filter(|r| r.cmd.tenant.0 == t).count();
            assert_eq!(n, 2, "tenant {t} got {n}");
        }
    }

    #[test]
    fn every_tenant_keeps_at_least_one_slot() {
        let mut s = sched();
        for (id, t) in (0..16).enumerate() {
            s.on_arrival(req(id as u64, t, IoType::Read, 128 * 1024), SimTime::ZERO);
        }
        assert_eq!(s.slot_limit(), 1);
        let subs = drain(&mut s, 1.0, 100);
        assert_eq!(subs.len(), 16, "high consolidation: one slot each");
    }

    #[test]
    fn blocked_request_is_not_reordered() {
        let mut s = sched();
        s.on_arrival(req(0, 0, IoType::Write, 128 * 1024), SimTime::ZERO);
        s.on_arrival(req(1, 0, IoType::Read, 4096), SimTime::ZERO);
        // Token check refuses writes: the write blocks the head.
        match s.dequeue(SimTime::ZERO, 1.0, |r| r.cmd.opcode.is_read()) {
            SchedPoll::Blocked { io_type, size } => {
                assert_eq!(io_type, IoType::Write);
                assert_eq!(size, 128 * 1024);
            }
            other => panic!("expected Blocked, got {other:?}"),
        }
        // Allowing it lets the stream proceed in order.
        match s.dequeue(SimTime::ZERO, 1.0, |_| true) {
            SchedPoll::Submit(r) => assert_eq!(r.cmd.id, CmdId(0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn priority_queues_prefer_urgent_requests() {
        let mut s = sched();
        for i in 0..8 {
            s.on_arrival(
                req_full(i, 0, IoType::Read, 4096, Priority::LOW),
                SimTime::ZERO,
            );
        }
        for i in 8..12 {
            s.on_arrival(
                req_full(i, 0, IoType::Read, 4096, Priority::HIGH),
                SimTime::ZERO,
            );
        }
        let subs = drain(&mut s, 1.0, 12);
        // WRR 4:2:1 — the four HIGH requests dominate the first picks but
        // LOW is not starved.
        let first_five: Vec<u64> = subs.iter().take(5).map(|r| r.cmd.id.0).collect();
        let high_early = first_five.iter().filter(|&&i| i >= 8).count();
        assert!(high_early >= 3, "high-priority early picks: {first_five:?}");
        assert_eq!(subs.len(), 12, "everything eventually schedules");
    }

    #[test]
    fn credit_reflects_latest_completed_slot() {
        let mut s = sched();
        for i in 0..32 {
            s.on_arrival(req(i, 0, IoType::Read, 4096), SimTime::ZERO);
        }
        let n = drain(&mut s, 1.0, 64).len();
        assert_eq!(n, 32);
        // Complete several full slots (32 × 4 KB each): the smoothed
        // per-slot IO count converges toward 32, so the credit approaches
        // 8 slots × 32.
        for i in 0..32 {
            s.on_completion(CmdId(i), SimTime::ZERO);
        }
        let after_one = s.credit_for(TenantId(0));
        assert!(
            after_one > 8 * 16,
            "credit moved toward 32/slot: {after_one}"
        );
        let n = drain(&mut s, 1.0, 64).len() as u64;
        for i in 32..32 + n {
            s.on_completion(CmdId(i), SimTime::ZERO);
        }
        assert!(
            s.credit_for(TenantId(0)) >= after_one,
            "credit keeps converging upward"
        );
    }

    /// The contending count as `slot_limit` used to compute it: a scan over
    /// every tenant, kept as the reference for the counter.
    fn contending_by_scan(s: &VirtualSlotScheduler) -> u32 {
        let n = s
            .tenants
            .values()
            .filter(|t| t.queued > 0 || t.outstanding > 0)
            .count();
        cast::usize_to_u32(n)
    }

    #[test]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "every draw is below a small bound"
    )]
    fn contending_counter_equals_scan_on_seeded_streams() {
        use gimbal_sim::SimRng;
        for case in 0..48u64 {
            let mut rng = SimRng::new(0xC0_u64 + case);
            let tenants = 1 + rng.gen_below(64) as u32;
            let mut s = sched();
            let mut inflight: Vec<CmdId> = Vec::new();
            let mut next = 0u64;
            for step in 0..600 {
                let now = SimTime::from_micros(step);
                match rng.gen_below(10) {
                    0..=3 => {
                        let op = if rng.gen_below(3) == 0 {
                            IoType::Write
                        } else {
                            IoType::Read
                        };
                        let len = 4096 * (1 + rng.gen_below(32) as u32);
                        let prio = Priority(rng.gen_below(3) as u8);
                        let tenant = rng.gen_below(u64::from(tenants)) as u32;
                        s.on_arrival(req_full(next, tenant, op, len, prio), now);
                        next += 1;
                    }
                    4..=6 => {
                        let pass = rng.gen_below(4) != 0;
                        if let SchedPoll::Submit(r) = s.dequeue(now, 3.0, |_| pass) {
                            inflight.push(r.cmd.id);
                        }
                    }
                    7 | 8 if !inflight.is_empty() => {
                        let i = rng.gen_below(inflight.len() as u64) as usize;
                        s.on_completion(inflight.swap_remove(i), now);
                    }
                    // Unknown ids (never submitted) must not move the count.
                    _ => s.on_completion(CmdId(u64::MAX - step), now),
                }
                assert_eq!(
                    s.contending,
                    contending_by_scan(&s),
                    "case {case} ({tenants} tenants) step {step}"
                );
            }
        }
    }

    #[test]
    fn unknown_tenant_gets_default_credit() {
        let s = sched();
        assert!(s.credit_for(TenantId(99)) > 0);
    }

    #[test]
    fn interleaved_arrivals_completions_stay_consistent() {
        let mut s = sched();
        let mut next = 0u64;
        let mut inflight: Vec<u64> = Vec::new();
        for round in 0..50 {
            for t in 0..3 {
                s.on_arrival(req(next, t, IoType::Read, 4096), SimTime::ZERO);
                next += 1;
            }
            while let SchedPoll::Submit(r) = s.dequeue(SimTime::ZERO, 1.0, |_| true) {
                inflight.push(r.cmd.id.0);
            }
            // Complete a prefix.
            let k = (round % 4) as usize + 1;
            for id in inflight.drain(..k.min(inflight.len())) {
                s.on_completion(CmdId(id), SimTime::ZERO);
            }
        }
        // Drain everything.
        for id in inflight.drain(..) {
            s.on_completion(CmdId(id), SimTime::ZERO);
        }
        while let SchedPoll::Submit(r) = s.dequeue(SimTime::ZERO, 1.0, |_| true) {
            s.on_completion(r.cmd.id, SimTime::ZERO);
        }
        assert_eq!(s.queued(), 0);
    }
}
