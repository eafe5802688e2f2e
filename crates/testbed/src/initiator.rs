//! The initiator side of every engine: Alg. 3's credit flow control (§3.6)
//! feeding §4.3's IO rate limiter, the retransmission ladder, and the
//! command ledger.
//!
//! The fio, KV and rack engines all submit through an [`Initiator`], the way
//! they all drive their targets through [`crate::Node`] in the shared
//! [`crate::reactor::Reactor`]. It assigns command
//! ids and owns each client's tx [`Port`], the fabric's loss injection, a
//! gate and three priority queues per (client, lane), the in-flight table,
//! the [`FaultCounters`] ledger and the timers. A lane is the worker itself
//! for fio and a backend for KV and the rack. Each command holds one table
//! entry until it is terminal, which makes the conservation audit exact —
//! unless the table has nothing to hold: with no timers armed and a
//! zero-sized tag (the fault-free fio engine), commands are only counted.

use crate::config::FaultConfig;
use crate::node::{InFlight, Tracked};
use crate::results::FaultCounters;
use crate::scheme::Gate;
use gimbal_fabric::{
    CmdId, EscalationAction, NvmeCmd, NvmeCompletion, Port, Priority, RdmaDelays, RetryConfig,
    SsdId, TenantId,
};
use gimbal_sim::{DetMap, FaultInjector, SimTime};
use gimbal_switch::ClientPolicy;
use gimbal_telemetry::{CapsuleKind, EventKind, TraceHandle};
use std::collections::VecDeque;

/// Outstanding LOW-priority (bulk background) IOs per lane, so a flush or
/// compaction burst trickles out instead of monopolizing the tenant's slots.
const MAX_LOW_OUTSTANDING: u32 = 2;

/// Command `cmd`'s transmission `attempt` is presumed lost at `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timer {
    pub at: SimTime,
    pub cmd: u64,
    pub attempt: u32,
}

/// What a live timer asks of the engine.
pub enum Expiry<T> {
    /// Send `cmd` again and arm `timer`.
    Retransmit { cmd: NvmeCmd, timer: Timer },
    /// The command is terminal at the initiator; with `reroute` the ladder
    /// suspects its node and the engine routes the IO elsewhere.
    Abandoned { entry: InFlight<T>, reroute: bool },
}

struct Lane<P> {
    gate: Gate,
    outstanding: u32,
    low_outstanding: u32,
    /// One queue per priority, so bulk bursts never head-of-line-block
    /// point reads (§4.3's application-specific IO scheduler).
    pending: [VecDeque<P>; Priority::LEVELS],
}

/// The initiator runtime over per-command tags `T` and queued IOs `P`.
pub struct Initiator<T, P = ()> {
    next_cmd: u64,
    ports: Vec<Port>,
    lanes: Vec<Lane<P>>,
    lanes_per_client: usize,
    table: DetMap<u64, InFlight<T>>,
    counters: FaultCounters,
    injector: Option<FaultInjector>,
    /// `Some` when retransmission timers are armed.
    retry: Option<RetryConfig>,
    trace: TraceHandle,
}

fn is_low(cmd: &NvmeCmd) -> bool {
    usize::from(cmd.priority.0) >= Priority::LEVELS - 1
}

fn arm(retry: &RetryConfig, cmd: u64, attempt: u32, now: SimTime) -> Timer {
    let at = now + retry.timeout_for(attempt);
    Timer { at, cmd, attempt }
}

impl<T, P> Initiator<T, P> {
    /// `clients` clients with `lanes` lanes each, gated by `gate()` per lane.
    /// With `faults`, capsules may be lost and every command arms a timer.
    pub(crate) fn new(
        clients: usize,
        lanes: usize,
        port_bandwidth: u64,
        faults: Option<&FaultConfig>,
        seed: u64,
        trace: TraceHandle,
        gate: impl Fn() -> Gate,
    ) -> Self {
        let lane = |_| Lane {
            gate: gate(),
            outstanding: 0,
            low_outstanding: 0,
            pending: Default::default(),
        };
        Initiator {
            next_cmd: 0,
            ports: (0..clients).map(|_| Port::new(port_bandwidth)).collect(),
            lanes: (0..clients * lanes).map(lane).collect(),
            lanes_per_client: lanes,
            table: DetMap::new(),
            counters: FaultCounters::default(),
            injector: faults.map(|f| FaultInjector::new(f.plan.clone(), seed)),
            retry: faults.map(|f| f.retry),
            trace,
        }
    }

    fn lane(&mut self, client: usize, lane: usize) -> &mut Lane<P> {
        &mut self.lanes[client * self.lanes_per_client + lane]
    }

    /// The lane a command of `tenant` to `ssd` travels on: its backend, or
    /// its client's only lane.
    fn lane_of(&mut self, tenant: TenantId, ssd: SsdId) -> &mut Lane<P> {
        let lane = ssd.index() % self.lanes_per_client;
        self.lane(tenant.index(), lane)
    }

    /// Whether the table holds every command: while timers are armed, or
    /// while there is a tag to hand back.
    fn tracks(&self) -> bool {
        self.retry.is_some() || std::mem::size_of::<T>() > 0
    }

    /// Number of clients.
    pub(crate) fn clients(&self) -> usize {
        self.ports.len()
    }

    /// Every client's tx port, in client order.
    pub(crate) fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// Serialize `cmd` on its client's port — capsule, then payload fetch
    /// for non-inlined writes — and return when it clears the fabric.
    pub(crate) fn wire(&mut self, delays: &RdmaDelays, cmd: &NvmeCmd, now: SimTime) -> SimTime {
        let port = &mut self.ports[cmd.tenant.index()];
        let at = delays.command_arrival(port, now, cmd);
        if cmd.opcode.is_write() {
            delays.write_payload_fetched(port, at, cmd)
        } else {
            at
        }
    }

    /// Whether the fabric loses `cmd`'s `capsule` sent at `at`; a lost one
    /// is counted and traced, and the command's timer recovers it.
    pub(crate) fn lose(&mut self, capsule: CapsuleKind, cmd: &NvmeCmd, at: SimTime) -> bool {
        let c = &mut self.counters;
        let (lost, count) = match (capsule, self.injector.as_mut()) {
            (_, None) => return false,
            (CapsuleKind::Command, Some(f)) => (f.drop_command(at), &mut c.cmd_capsules_dropped),
            (CapsuleKind::Completion, Some(f)) => {
                (f.drop_completion(at), &mut c.cpl_capsules_dropped)
            }
        };
        if lost {
            *count += 1;
            self.note(at, cmd, EventKind::FaultInjected { capsule });
        }
        lost
    }

    fn note(&self, now: SimTime, cmd: &NvmeCmd, kind: EventKind) {
        self.trace.record(now, cmd.ssd, Some(cmd.tenant), kind);
    }

    /// Whether the lane may send one more command now: fewer than `depth`
    /// are on the wire and its gate admits it.
    pub(crate) fn admits(&mut self, client: usize, lane: usize, depth: u32, now: SimTime) -> bool {
        let l = self.lane(client, lane);
        l.outstanding < depth && l.gate.policy().can_submit(l.outstanding, now)
    }

    /// Queue `io` behind the lane's gate at `priority`. Queued lanes must be
    /// tracked: the table remembers which commands hold LOW slots.
    pub fn enqueue(&mut self, client: usize, lane: usize, priority: Priority, io: P) {
        debug_assert!(self.tracks(), "a queued lane without a table");
        let level = usize::from(priority.0).min(Priority::LEVELS - 1);
        self.lane(client, lane).pending[level].push_back(io);
    }

    /// The lane's next queued IO, if its gate admits one now: the most
    /// urgent level with work, LOW only under its cap. The caller submits
    /// it.
    pub fn next_pending(&mut self, client: usize, lane: usize, now: SimTime) -> Option<P> {
        let l = self.lane(client, lane);
        let level = (0..Priority::LEVELS).find(|&v| {
            !l.pending[v].is_empty()
                && (v + 1 < Priority::LEVELS || l.low_outstanding < MAX_LOW_OUTSTANDING)
        })?;
        if !l.gate.policy().can_submit(l.outstanding, now) {
            return None;
        }
        l.pending[level].pop_front()
    }

    /// Submit the command `build` makes from a fresh id. It comes back for
    /// the engine to send, with its timer when timers are armed.
    pub fn submit(
        &mut self,
        tag: T,
        now: SimTime,
        build: impl FnOnce(CmdId) -> NvmeCmd,
    ) -> (NvmeCmd, Option<Timer>) {
        let cmd = build(CmdId(self.next_cmd));
        self.next_cmd += 1;
        let tracks = self.tracks();
        let l = self.lane_of(cmd.tenant, cmd.ssd);
        l.outstanding += 1;
        l.low_outstanding += u32::from(tracks && is_low(&cmd));
        l.gate.policy().on_submit(now);
        self.counters.submitted += 1;
        if tracks {
            self.table.insert(cmd.id.0, InFlight::new(cmd, tag));
        }
        (cmd, self.retry.map(|r| arm(&r, cmd.id.0, 0, now)))
    }

    /// A command of `tenant` to `ssd` is terminal: release its lane slot,
    /// and its LOW slot when it holds one.
    fn release(&mut self, tenant: TenantId, ssd: SsdId, low: bool) -> &mut dyn ClientPolicy {
        let l = self.lane_of(tenant, ssd);
        l.outstanding -= 1;
        l.low_outstanding -= u32::from(low);
        l.gate.policy()
    }

    /// A completion capsule arrived. `None` when the command was already
    /// abandoned (counted stale). Otherwise the command is terminal, its
    /// gate sees the completion — even an error one carries the credit
    /// grant that re-syncs flow control after losses — and its tag comes
    /// back.
    pub fn complete(&mut self, cpl: &NvmeCompletion, now: SimTime) -> Option<T>
    where
        T: Default,
    {
        let (tag, low) = if self.tracks() {
            let Some(entry) = self.table.remove(&cpl.id.0) else {
                self.counters.stale_completions_ignored += 1;
                return None;
            };
            (entry.tag, is_low(&entry.cmd))
        } else {
            // A zero-sized tag: the default is the only value.
            (T::default(), false)
        };
        self.release(cpl.tenant, cpl.ssd, low)
            .on_completion(cpl, now);
        if let Some(credit) = cpl.credit {
            let kind = EventKind::CreditGranted { credit };
            self.trace.record(now, cpl.ssd, Some(cpl.tenant), kind);
        }
        if cpl.status.is_success() {
            self.counters.completed_ok += 1;
        } else {
            self.counters.completed_err += 1;
        }
        Some(tag)
    }

    /// Timer `t` fired. A dead one (its command is terminal, or a
    /// retransmission superseded it) returns `None`; a live one climbs
    /// [`RetryConfig::escalate`]'s ladder, where `can_reroute` says whether
    /// another live replica holds the command's span (`|_| false` on a
    /// single node).
    pub fn on_timer(
        &mut self,
        t: Timer,
        now: SimTime,
        can_reroute: impl FnOnce(&T) -> bool,
    ) -> Option<Expiry<T>> {
        let retry = self.retry?;
        let entry = self.table.get_mut(&t.cmd)?;
        if entry.attempt != t.attempt {
            return None;
        }
        let cmd = entry.cmd;
        let action = retry.escalate(t.attempt, can_reroute(&entry.tag));
        if action == EscalationAction::Retransmit {
            let next = t.attempt + 1;
            entry.attempt = next;
            self.counters.retries += 1;
            let timer = arm(&retry, t.cmd, next, now);
            let kind = EventKind::RetryScheduled {
                cmd: t.cmd,
                attempt: next,
                timeout_ns: timer.at.since(now).as_nanos(),
            };
            self.note(now, &cmd, kind);
            return Some(Expiry::Retransmit { cmd, timer });
        }
        // The command errors out client-side. Its grant is presumed lost,
        // so the gate may shrink its window until the next surviving
        // completion re-syncs it.
        let entry = self.table.remove(&t.cmd).expect("live entry");
        self.counters.timed_out += 1;
        let kind = EventKind::TimedOut {
            cmd: t.cmd,
            attempts: t.attempt + 1,
        };
        self.note(now, &cmd, kind);
        let gate = self.release(cmd.tenant, cmd.ssd, is_low(&cmd));
        let before = gate.allowance();
        gate.on_timeout(now);
        let after = gate.allowance();
        if after != before {
            self.note(now, &cmd, EventKind::CreditHalved { before, after });
        }
        let reroute = action == EscalationAction::SuspectAndReroute;
        Some(Expiry::Abandoned { entry, reroute })
    }

    /// The in-flight table and the counters the node's replay dedup lands
    /// in, while timers are armed; `None` otherwise, so every arrival
    /// executes and same-instant batching stays on.
    pub(crate) fn in_flight(&mut self) -> Option<Tracked<'_, T>> {
        self.retry?;
        Some((&mut self.table, &mut self.counters))
    }

    /// A completion the target served from its cache, not the device.
    pub(crate) fn served_from_cache(&mut self) {
        self.counters.cache_served += 1;
    }

    /// The end-of-run ledger, audited: every submission sits in exactly one
    /// terminal bucket or is still on the wire.
    pub(crate) fn finish(&self) -> FaultCounters {
        let on_wire = self.lanes.iter().map(|l| u64::from(l.outstanding)).sum();
        debug_assert!(!self.tracks() || self.table.len() as u64 == on_wire);
        let counters = FaultCounters {
            in_flight_at_end: on_wire,
            ..self.counters
        };
        debug_assert!(
            counters.conservation_holds(),
            "command conservation violated: {counters:?}"
        );
        counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gimbal_core::CreditClient;
    use gimbal_fabric::{CmdStatus, IoType};
    use gimbal_sim::FaultPlan;
    use gimbal_switch::UnlimitedClient;
    use gimbal_telemetry::{RecordedTrace, TraceConfig};

    fn retry(max_retries: u32) -> RetryConfig {
        RetryConfig {
            max_retries,
            suspect_after: max_retries.max(1),
            ..RetryConfig::default()
        }
    }

    /// One client, one lane, the given gate and timers, tracing on.
    fn single(retry: Option<RetryConfig>, gate: fn() -> Gate) -> (Initiator<()>, TraceHandle) {
        let tracing = TraceHandle::new(&TraceConfig::default());
        let faults = retry.map(|retry| FaultConfig {
            plan: FaultPlan::default(),
            retry,
        });
        let init = Initiator::new(1, 1, 1 << 30, faults.as_ref(), 0, tracing.clone(), gate);
        (init, tracing)
    }

    fn unlimited() -> Gate {
        Gate::Open(UnlimitedClient)
    }

    fn cmd(id: CmdId, priority: Priority) -> NvmeCmd {
        NvmeCmd {
            id,
            tenant: TenantId(0),
            ssd: SsdId(0),
            opcode: IoType::Read,
            lba: 0,
            len: 4096,
            priority,
            issued_at: SimTime::ZERO,
            wal: None,
        }
    }

    fn submit(i: &mut Initiator<()>, priority: Priority) -> (NvmeCmd, Option<Timer>) {
        i.submit((), SimTime::ZERO, |id| cmd(id, priority))
    }

    fn cpl(c: &NvmeCmd) -> NvmeCompletion {
        NvmeCompletion {
            id: c.id,
            tenant: c.tenant,
            ssd: c.ssd,
            opcode: c.opcode,
            len: c.len,
            status: CmdStatus::Success,
            credit: None,
            issued_at: c.issued_at,
            completed_at: SimTime::from_micros(100),
        }
    }

    fn events(tracing: TraceHandle) -> RecordedTrace {
        tracing.finish().expect("tracing was on")
    }

    #[test]
    fn a_superseded_timer_is_ignored() {
        let (mut i, _) = single(Some(retry(5)), unlimited);
        let (_, t0) = submit(&mut i, Priority::NORMAL);
        let t0 = t0.expect("timers armed");
        let Some(Expiry::Retransmit { timer: t1, .. }) = i.on_timer(t0, t0.at, |_| false) else {
            panic!("first expiry retransmits");
        };
        assert_eq!(t1.attempt, 1);
        assert!(i.on_timer(t0, t1.at, |_| false).is_none(), "stale attempt");
        let c = i.finish();
        assert_eq!((c.retries, c.timed_out, c.in_flight_at_end), (1, 0, 1));
    }

    #[test]
    fn a_completion_after_a_terminal_timeout_is_stale_once() {
        let (mut i, _) = single(Some(retry(0)), unlimited);
        let (c, t) = submit(&mut i, Priority::NORMAL);
        let t = t.expect("timers armed");
        assert!(matches!(
            i.on_timer(t, t.at, |_| false),
            Some(Expiry::Abandoned { reroute: false, .. })
        ));
        assert!(i.admits(0, 0, 1, t.at), "the slot is free");
        assert!(i.complete(&cpl(&c), t.at).is_none());
        assert!(i.admits(0, 0, 1, t.at), "no underflow, no double release");
        let f = i.finish();
        assert_eq!((f.stale_completions_ignored, f.timed_out), (1, 1));
        assert_eq!(f.completed_ok, 0);
    }

    #[test]
    fn without_a_reroute_the_ladder_is_terminal_at_max_retries() {
        let max = 3;
        let (mut i, tracing) = single(Some(retry(max)), unlimited);
        let (_, t) = submit(&mut i, Priority::NORMAL);
        let mut t = t.expect("timers armed");
        for attempt in 0..max {
            assert_eq!(t.attempt, attempt);
            match i.on_timer(t, t.at, |_| false) {
                Some(Expiry::Retransmit { timer, .. }) => t = timer,
                _ => panic!("attempt {attempt} must retransmit"),
            }
        }
        assert!(matches!(
            i.on_timer(t, t.at, |_| false),
            Some(Expiry::Abandoned { reroute: false, .. })
        ));
        let f = i.finish();
        assert_eq!((f.retries, f.timed_out), (u64::from(max), 1));
        let timed_out: Vec<u32> = events(tracing)
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::TimedOut { attempts, .. } => Some(attempts),
                _ => None,
            })
            .collect();
        assert_eq!(timed_out, [max + 1]);
    }

    #[test]
    fn the_low_cap_holds_while_high_and_normal_drain() {
        let now = SimTime::ZERO;
        // Queued lanes carry tags, so the table tracks them without timers.
        let mut i: Initiator<u64, u32> =
            Initiator::new(1, 1, 1 << 30, None, 0, TraceHandle::disabled(), unlimited);
        let drain = |i: &mut Initiator<u64, u32>, priority: Priority| {
            let mut sent = Vec::new();
            while let Some(n) = i.next_pending(0, 0, now) {
                sent.push(n);
                i.submit(n.into(), now, |id| cmd(id, priority));
            }
            sent
        };
        for n in 0..4 {
            i.enqueue(0, 0, Priority::LOW, n);
        }
        assert_eq!(drain(&mut i, Priority::LOW), [0, 1], "LOW stops at the cap");
        i.enqueue(0, 0, Priority::NORMAL, 10);
        i.enqueue(0, 0, Priority::HIGH, 20);
        i.enqueue(0, 0, Priority::NORMAL, 11);
        assert_eq!(
            drain(&mut i, Priority::NORMAL),
            [20, 10, 11],
            "HIGH, then NORMAL, past the capped LOW queue"
        );
        // A LOW completion frees exactly one LOW slot.
        assert!(i
            .complete(&cpl(&cmd(CmdId(0), Priority::LOW)), now)
            .is_some());
        assert_eq!(drain(&mut i, Priority::LOW), [2]);
        assert!(
            !i.admits(0, 0, 5, now) && i.admits(0, 0, 6, now),
            "5 on the wire"
        );
    }

    #[test]
    fn without_timers_a_zero_sized_tag_keeps_no_table() {
        let (mut i, _) = single(None, unlimited);
        let (a, t) = submit(&mut i, Priority::LOW);
        assert!(t.is_none(), "no timers armed");
        submit(&mut i, Priority::NORMAL);
        assert!(i.in_flight().is_none(), "the node sees no table");
        assert_eq!(i.table.len(), 0);
        assert_eq!(i.complete(&cpl(&a), SimTime::ZERO), Some(()));
        let f = i.finish();
        assert_eq!((f.submitted, f.completed_ok, f.in_flight_at_end), (2, 1, 1));
    }

    #[test]
    fn credit_halved_is_recorded_only_when_the_allowance_changes() {
        let halved = |gate: fn() -> Gate| {
            let (mut i, tracing) = single(Some(retry(0)), gate);
            for _ in 0..2 {
                let (_, t) = submit(&mut i, Priority::NORMAL);
                let t = t.expect("timers armed");
                assert!(i.on_timer(t, t.at, |_| false).is_some());
            }
            events(tracing)
                .events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::CreditHalved { before, after } => Some((before, after)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            halved(|| Gate::Credit(CreditClient::new(4))),
            [(4, 2), (2, 1)]
        );
        assert_eq!(halved(|| Gate::Credit(CreditClient::new(1))), []);
        assert_eq!(halved(unlimited), []);
    }
}
