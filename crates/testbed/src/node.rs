//! One JBOF node: its per-SSD switch pipelines and the reactor-core
//! scheduler they run on (§4.1, the SPDK reactor structure).
//!
//! The fio engine ([`crate::engine`]), the KV engine ([`crate::kv`]) and the
//! rack (`gimbal-rack`, N nodes behind a ToR) all drive their targets
//! through [`Node`], inside the shared [`crate::reactor::Reactor`]. It
//! builds the pipelines, brackets every poll quantum on the core the
//! scheduler picks, polls, turns pipeline outputs into completion capsules,
//! arms wakes and drops superseded ones, dedups replayed commands, and
//! journals all of it. What the node calls back into is the reactor's
//! [`NodeHost`]: the queue a wake lands in, the wire a completion leaves
//! on, and the in-flight table dedup reads.
//!
//! SSD ids are global: node `n` serves SSDs `n × ssds_per_node ..`, and its
//! journal keys carry the same offset.

use crate::config::Precondition;
use crate::reactor::{Engine, NodeHost, Outcome, Rig};
use crate::results::{FaultCounters, GimbalTrace};
use gimbal_broker::BrokerHandle;
use gimbal_cache::WritePolicy;
use gimbal_core::GimbalPolicy;
use gimbal_cores::{CoreScheduler, CoresStats, Quantum};
use gimbal_fabric::{IoType, NvmeCmd, NvmeCompletion, SsdId};
use gimbal_sim::journal::JournalHandle;
use gimbal_sim::{DetMap, FaultPlan, SimDuration, SimRng, SimTime};
use gimbal_ssd::FlashSsd;
use gimbal_switch::{Pipeline, PipelineConfig, PipelineOut};
use gimbal_telemetry::TraceHandle;

/// One live command in an engine's in-flight table, from submission until
/// it is terminal at the initiator.
pub struct InFlight<T> {
    /// The command, as (re)transmitted.
    pub cmd: NvmeCmd,
    /// Latest transmission attempt (0 = original); timers carry the attempt
    /// they were armed for, so superseded timers die on arrival.
    pub attempt: u32,
    /// The engine's own bookkeeping.
    pub tag: T,
    /// Whether any capsule copy has reached the pipeline.
    delivered: bool,
    /// The completion cached at the target: a replay of a finished command
    /// gets it resent instead of executing twice.
    done: Option<NvmeCompletion>,
}

impl<T> InFlight<T> {
    /// A freshly submitted command.
    pub(crate) fn new(cmd: NvmeCmd, tag: T) -> Self {
        InFlight {
            cmd,
            attempt: 0,
            tag,
            delivered: false,
            done: None,
        }
    }
}

/// An in-flight table by command id, with the counters its replay-dedup
/// decisions land in.
pub type Tracked<'a, T> = (&'a mut DetMap<u64, InFlight<T>>, &'a mut FaultCounters);

/// One JBOF node. See the module docs.
pub struct Node {
    first: usize,
    pipelines: Vec<Pipeline<FlashSsd>>,
    /// Owns every core; each quantum runs on the core it assigns. With
    /// stealing off it always assigns the home core and records nothing.
    sched: CoreScheduler,
    /// Earliest armed wake per pipeline (avoids event storms).
    wake_at: Vec<SimTime>,
    /// Recycled completion buffer, swapped with a pipeline's own every pump.
    out_buf: Vec<PipelineOut>,
    broker: Option<BrokerHandle>,
    sanitizer: JournalHandle,
    /// Test-only injected nondeterminism: pump pipelines in reverse order
    /// at a power loss, to prove the sanitizer localizes a real ordering
    /// bug to its exact tick and component.
    #[cfg(test)]
    pub(crate) perturb_powerloss_pump: bool,
}

impl Node {
    /// Build node `n` of `rig`, SSD seeds drawn from `rng` in id order. A
    /// node-scoped GC storm is a correlated device storm: it folds into
    /// every member SSD's stall windows, so each stalls and is `gc_busy`.
    pub(crate) fn build(
        rig: &Rig<'_>,
        n: usize,
        trace: &TraceHandle,
        sanitizer: &JournalHandle,
        broker: Option<&BrokerHandle>,
        rng: &mut SimRng,
    ) -> Node {
        let (first, ssds) = (n * rig.ssds_per_node, rig.ssds_per_node);
        let sched = CoreScheduler::new(rig.cores_per_node, ssds, rig.steal.clone(), trace.clone());
        let cfg = PipelineConfig {
            cpu_cost: rig.cpu_cost,
            null_device: false,
            cache: rig.cache.clone(),
            broker: broker.cloned(),
        };
        let plan = &rig.plan;
        let pipelines = (0..ssds)
            .map(|l| {
                let i = first + l;
                let mut ssd = FlashSsd::new(rig.ssd.clone(), rng.next_u64());
                match rig.precondition {
                    Precondition::Clean => ssd.precondition_clean(),
                    Precondition::Fragmented => ssd.precondition_fragmented(),
                    Precondition::None => {}
                }
                let mut fault = plan.ssd_spec(i).cloned().unwrap_or_default();
                if let Some(ns) = plan.node_spec(n) {
                    fault
                        .stall_windows
                        .extend(ns.gc_storm_windows.iter().copied());
                }
                if !fault.is_noop() {
                    ssd.arm_faults(fault, FaultPlan::device_rng(rig.seed, i));
                }
                let id = SsdId(i as u32);
                let mut p = Pipeline::with_core(
                    id,
                    ssd,
                    rig.scheme.make_policy(id, rig.gimbal_params),
                    cfg.clone(),
                    sched.core_rc(sched.home(l)),
                );
                if trace.is_enabled() {
                    p.attach_trace(trace.clone());
                }
                p
            })
            .collect();
        Node {
            first,
            pipelines,
            sched,
            wake_at: vec![SimTime::MAX; ssds],
            out_buf: Vec::new(),
            broker: broker.cloned(),
            sanitizer: sanitizer.clone(),
            #[cfg(test)]
            perturb_powerloss_pump: false,
        }
    }

    /// The node's pipelines, in SSD order.
    pub(crate) fn pipelines(&self) -> &[Pipeline<FlashSsd>] {
        &self.pipelines
    }

    /// A command capsule for SSD `ssd` arrived at `now`. A first arrival
    /// executes; a replay of a finished command gets its cached completion
    /// resent; any other replay is dropped.
    ///
    /// Up to `batch - 1` further same-instant commands drawn from `more`
    /// join the first one's quantum (one scheduler decision and one pump
    /// per batch), but only while the pipeline has nothing else due at
    /// `now`, so an intermediate completion interleaves exactly as unbatched
    /// arrivals would. A tracking engine never batches: replay dedup could
    /// turn an arrival into a resend mid-batch.
    pub(crate) fn deliver<E: Engine>(
        &mut self,
        ssd: usize,
        cmd: NvmeCmd,
        now: SimTime,
        host: &mut NodeHost<E>,
        batch: u32,
        mut more: impl FnMut(&mut NodeHost<E>) -> Option<NvmeCmd>,
    ) {
        let tracked = match host.in_flight() {
            None => false,
            Some((table, counters)) => {
                match table.get_mut(&cmd.id.0) {
                    Some(InFlight {
                        done: Some(cpl), ..
                    }) => {
                        let cpl = *cpl;
                        counters.completions_resent += 1;
                        host.send(ssd, &cmd, cpl, now);
                        return;
                    }
                    Some(t) if !t.delivered => t.delivered = true,
                    // Still executing, or already abandoned by the
                    // initiator: a late replay.
                    _ => {
                        counters.duplicate_cmds_ignored += 1;
                        return;
                    }
                }
                true
            }
        };
        let l = ssd - self.first;
        // The submit-path CPU charge must land on the quantum's core, so
        // the scheduler decides before the command enters the pipeline; the
        // pump below re-enters the same quantum.
        let q = self.begin(l, now);
        self.pipelines[l].on_command(cmd, now);
        let mut n = 1;
        while !tracked && n < batch && self.pipelines[l].next_event_at().is_none_or(|t| t > now) {
            let Some(cmd) = more(host) else { break };
            self.pipelines[l].on_command(cmd, now);
            n += 1;
        }
        self.sched.end(l, q);
        self.pump(l, now, host);
    }

    /// A wake for SSD `ssd` fired at `now`. Only the armed wake pumps;
    /// superseded ones die here, or they would respawn forever and flood
    /// the queue.
    pub(crate) fn wake<E: Engine>(&mut self, ssd: usize, now: SimTime, host: &mut NodeHost<E>) {
        let l = ssd - self.first;
        if self.wake_at[l] == now {
            self.wake_at[l] = SimTime::MAX;
            self.pump(l, now, host);
        }
    }

    /// Pump every pipeline, in SSD order.
    pub(crate) fn pump_all<E: Engine>(&mut self, now: SimTime, host: &mut NodeHost<E>) {
        for l in 0..self.pipelines.len() {
            self.pump(l, now, host);
        }
    }

    /// Simulated NIC power loss: each pipeline's cache goes cold (dirty
    /// lines surface as typed losses), then the pipeline pumps.
    pub(crate) fn power_loss<E: Engine>(&mut self, now: SimTime, host: &mut NodeHost<E>) {
        #[allow(unused_mut)]
        let mut order: Vec<usize> = (0..self.pipelines.len()).collect();
        #[cfg(test)]
        if self.perturb_powerloss_pump {
            order.reverse();
        }
        for l in order {
            self.pipelines[l].power_loss(now);
            self.pump(l, now, host);
        }
    }

    /// The core scheduler's rebalance period, when stealing rebalances.
    pub(crate) fn rebalance_epoch(&self) -> Option<SimDuration> {
        self.sched.rebalance_epoch()
    }

    /// Move home cores per the epoch's per-pipeline cycle consumption.
    pub(crate) fn rebalance(&mut self, now: SimTime) {
        self.sched.rebalance(now);
        self.drain_cores_journal(now);
    }

    /// Sample each Gimbal pipeline's control state into `traces` (indexed
    /// like the node's SSDs; other schemes record nothing).
    pub(crate) fn sample_gimbal(&self, now: SimTime, traces: &mut [GimbalTrace]) {
        for (p, tr) in self.pipelines.iter().zip(traces) {
            if let Some(g) = p.policy().as_any().downcast_ref::<GimbalPolicy>() {
                tr.target_rate.push(now, g.target_rate());
                tr.write_cost.push(now, g.current_write_cost());
                let rm = g.monitor(IoType::Read);
                tr.read_ewma_us.push(now, rm.ewma_ns() / 1e3);
                tr.read_thresh_us.push(now, rm.thresh_ns() / 1e3);
                let wm = g.monitor(IoType::Write);
                tr.write_ewma_us.push(now, wm.ewma_ns() / 1e3);
                tr.write_thresh_us.push(now, wm.thresh_ns() / 1e3);
            }
        }
    }

    /// Append the node's device, cache and write-back results to `out`,
    /// moving each write-back journal out of its cache rather than copying
    /// it.
    pub(crate) fn device_results_into(&mut self, out: &mut Outcome) {
        for p in &mut self.pipelines {
            out.ssd_stats.push(p.device().stats());
            out.cache.extend(p.cache_stats());
            out.cache_losses.extend(p.cache_losses().iter().copied());
            let Some(c) = p
                .cache_mut()
                .filter(|c| c.write_policy() == WritePolicy::Back)
            else {
                continue;
            };
            let wb = c.write_back_stats();
            debug_assert!(
                wb.conservation_holds(),
                "write-back line conservation violated: {wb:?}"
            );
            out.write_back.push(wb);
            out.journals.push(c.take_journal());
        }
    }

    /// Scheduler counters, only when stealing was configured, so steal-off
    /// digests stay bit-identical to pre-scheduler builds.
    pub(crate) fn cores_stats(&self) -> Option<CoresStats> {
        self.sched.stealing().then(|| self.sched.stats())
    }

    /// Open a poll quantum for local pipeline `l` on the core the scheduler
    /// picks (home, or an idle thief when stealing is on), journaling any
    /// steal ahead of the quantum's own records. Re-entry at the same tick
    /// reuses the decision, so an arrival's charge and its pump share a core.
    fn begin(&mut self, l: usize, now: SimTime) -> Quantum {
        let q = self.sched.begin(l, now);
        self.pipelines[l].set_core(self.sched.core_rc(q.core()));
        self.drain_cores_journal(now);
        q
    }

    /// Stamp queued scheduler decisions into the journal under component
    /// `cores`; empty, and free, when stealing is off.
    fn drain_cores_journal(&mut self, now: SimTime) {
        let (base, sanitizer) = (self.first as u64, &self.sanitizer);
        self.sched.drain_journal_with(|op, key| {
            sanitizer.record(now.as_nanos(), "cores", op, base + key);
        });
    }

    /// Poll local pipeline `l`, send its completion capsules, arm its next
    /// wake.
    fn pump<E: Engine>(&mut self, l: usize, now: SimTime, host: &mut NodeHost<E>) {
        let ssd = self.first + l;
        let q = self.begin(l, now);
        self.sanitizer
            .record(now.as_nanos(), "switch.pipeline", "pump", ssd as u64);
        self.pipelines[l].poll(now);
        // The ledger cannot see the event tick from inside a poll, so it
        // queues its decisions and they are stamped here.
        if let Some(b) = &self.broker {
            let sanitizer = &self.sanitizer;
            b.drain_journal_with(|op, key| sanitizer.record(now.as_nanos(), "broker", op, key));
        }
        self.pipelines[l].take_outputs_into(&mut self.out_buf);
        for out in self.out_buf.drain(..) {
            // Journal at `now` (the poll step), not `out.at`: ticks must be
            // monotone and the capsule's departure lies in the future.
            self.sanitizer
                .record(now.as_nanos(), "switch.pipeline", "complete", out.cmd.id.0);
            host.served(ssd, &out, now);
            let cpl = NvmeCompletion {
                id: out.cmd.id,
                tenant: out.cmd.tenant,
                ssd: out.cmd.ssd,
                opcode: out.cmd.opcode,
                len: out.cmd.len,
                status: out.status,
                credit: out.credit,
                issued_at: out.cmd.issued_at,
                completed_at: out.at,
            };
            // Cache for replay dedup. A missing entry means the initiator
            // already abandoned the command; the capsule still travels and
            // is ignored on arrival.
            if let Some(t) = host
                .in_flight()
                .and_then(|(table, _)| table.get_mut(&cpl.id.0))
            {
                t.done = Some(cpl);
            }
            host.send(ssd, &out.cmd, cpl, out.at);
        }
        if let Some(t) = self.pipelines[l].next_event_at() {
            let t = t.max(now + SimDuration::from_nanos(1));
            // Only arm a wake if no earlier one is pending; that wake's pump
            // re-arms as needed.
            if t < self.wake_at[l] {
                self.wake_at[l] = t;
                host.arm_wake(ssd, t);
            }
        }
        self.sched.end(l, q);
    }
}
