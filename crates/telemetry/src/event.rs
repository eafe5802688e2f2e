//! The typed event taxonomy.
//!
//! Every variant corresponds to one observable decision of a control loop.
//! Events are `Copy`, carry only plain numbers and interned labels, and fold
//! into a [`Digest`] field by field so a trace has a deterministic fingerprint.

use gimbal_fabric::{IoType, SsdId, TenantId};
use gimbal_sim::{Digest, SimTime};

/// The subsystem an event originates from. Used for filtering and as the
/// interned category label in exports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Component {
    /// Per-IO congestion state machine (§3.2, Alg. 1).
    Congestion,
    /// Rate limiter and dual token bucket (§3.3).
    Rate,
    /// ADMI write-cost estimator (§3.4).
    WriteCost,
    /// DRR virtual-slot scheduler (§3.5).
    Scheduler,
    /// Credit-based flow control (§3.6).
    Credit,
    /// Flash device internals (GC, stalls).
    Ssd,
    /// Fabric-level failure handling (loss, retries, timeouts).
    Fabric,
    /// NIC-DRAM cache tier (hits, fills, eviction, admission).
    Cache,
    /// Rack-level routing and failover (node suspicion, rerouting, node
    /// death, ToR link degradation).
    Rack,
    /// Inter-tenant token broker (borrow ledger, repayment epochs,
    /// placement migrations).
    Broker,
    /// Reactor-core scheduler (quantum stealing across pipelines, home
    /// rebalance epochs).
    Cores,
}

impl Component {
    /// Every component, in a fixed order (counter registration, exports).
    pub const ALL: [Component; 11] = [
        Component::Congestion,
        Component::Rate,
        Component::WriteCost,
        Component::Scheduler,
        Component::Credit,
        Component::Ssd,
        Component::Fabric,
        Component::Cache,
        Component::Rack,
        Component::Broker,
        Component::Cores,
    ];

    /// Interned label.
    pub const fn name(self) -> &'static str {
        match self {
            Component::Congestion => "congestion",
            Component::Rate => "rate",
            Component::WriteCost => "write_cost",
            Component::Scheduler => "scheduler",
            Component::Credit => "credit",
            Component::Ssd => "ssd",
            Component::Fabric => "fabric",
            Component::Cache => "cache",
            Component::Rack => "rack",
            Component::Broker => "broker",
            Component::Cores => "cores",
        }
    }
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Mirror of the Alg. 1 congestion states.
///
/// Kept telemetry-local so `gimbal-telemetry` depends only on the simulation
/// substrate and the fabric types, not on `gimbal-core` (which depends on the
/// crates this one instruments).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CongState {
    /// Latency below the floor threshold: probe aggressively.
    Underutilized,
    /// Additive increase band.
    CongestionAvoidance,
    /// Latency at or above the dynamic threshold: additive decrease.
    Congested,
    /// Latency at or above the ceiling: multiplicative back-off.
    Overloaded,
}

impl CongState {
    /// Position on the pressure ladder (0 = idle, 3 = overloaded); adjacency
    /// checks compare ranks.
    pub const fn rank(self) -> u8 {
        match self {
            CongState::Underutilized => 0,
            CongState::CongestionAvoidance => 1,
            CongState::Congested => 2,
            CongState::Overloaded => 3,
        }
    }

    /// Interned label.
    pub(crate) const fn name(self) -> &'static str {
        match self {
            CongState::Underutilized => "underutilized",
            CongState::CongestionAvoidance => "congestion_avoidance",
            CongState::Congested => "congested",
            CongState::Overloaded => "overloaded",
        }
    }
}

impl std::fmt::Display for CongState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which capsule a fabric fault consumed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CapsuleKind {
    /// Initiator → target command capsule.
    Command,
    /// Target → initiator completion capsule.
    Completion,
}

impl CapsuleKind {
    /// Interned label.
    pub(crate) const fn name(self) -> &'static str {
        match self {
            CapsuleKind::Command => "command",
            CapsuleKind::Completion => "completion",
        }
    }
}

/// Direction of a token-bucket overflow transfer (§3.3's spill between the
/// read and write buckets when one side is idle).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OverflowDirection {
    /// Read bucket was full; surplus flowed to the write bucket.
    ReadToWrite,
    /// Write bucket was full; surplus flowed to the read bucket.
    WriteToRead,
}

impl OverflowDirection {
    /// Interned label.
    pub(crate) const fn name(self) -> &'static str {
        match self {
            OverflowDirection::ReadToWrite => "read_to_write",
            OverflowDirection::WriteToRead => "write_to_read",
        }
    }
}

/// One observable control-loop decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// The per-IO congestion state machine changed state; snapshots of the
    /// EWMA and the dynamic threshold before/after let conformance tests
    /// re-derive the classification.
    CongestionTransition {
        /// Which monitor (read or write).
        io: IoType,
        /// State before this sample.
        from: CongState,
        /// State after this sample.
        to: CongState,
        /// EWMA latency after folding in this sample, in ns.
        ewma_ns: f64,
        /// Dynamic threshold before the update, in ns.
        thresh_before_ns: f64,
        /// Dynamic threshold after the update, in ns.
        thresh_after_ns: f64,
    },
    /// The rate limiter adjusted the target rate on a completion.
    RateUpdate {
        /// The IO type of the completing command.
        io: IoType,
        /// Congestion state that drove the adjustment.
        state: CongState,
        /// Target rate before, bytes/second.
        old_bps: f64,
        /// Target rate after clamping, bytes/second.
        new_bps: f64,
    },
    /// The dual token bucket was replenished from the target rate.
    BucketRefill {
        /// Read-bucket level after the refill, bytes.
        read_tokens: f64,
        /// Write-bucket level after the refill, bytes.
        write_tokens: f64,
    },
    /// Surplus tokens spilled from a full bucket to its sibling.
    OverflowTransfer {
        /// Which way the surplus flowed.
        direction: OverflowDirection,
        /// Bytes transferred.
        amount: f64,
        /// Source-bucket level after the transfer, bytes — the overflow
        /// invariant says this equals the bucket capacity (the source was
        /// full, i.e. that side is idle).
        src_tokens: f64,
    },
    /// The ADMI estimator stepped the write cost at a period boundary.
    WriteCostStep {
        /// Cost before the step.
        old_cost: f64,
        /// Cost after the step.
        new_cost: f64,
        /// Whether the write monitor was below the floor threshold (fast
        /// additive recovery) or not (averaging back toward worst case).
        below_min: bool,
    },
    /// The DRR scheduler opened a virtual slot for a tenant.
    SlotOpened {
        /// Slot index in the tenant's slot table.
        slot: u32,
    },
    /// A virtual slot reached its byte budget and stopped accepting IOs.
    SlotClosed {
        /// Slot index.
        slot: u32,
        /// IOs submitted into the slot over its lifetime.
        submits: u32,
    },
    /// Every IO in a closed slot completed; the slot returned to the pool
    /// and refreshed the tenant's credit estimate.
    SlotFreed {
        /// Slot index.
        slot: u32,
        /// New smoothed IOs-per-slot estimate (feeds credit grants).
        credit_ios: u32,
    },
    /// A tenant could not open a slot and left the active round-robin.
    TenantDeferred {
        /// IOs still queued for the tenant at deferral.
        queued: u32,
    },
    /// A deferred tenant re-entered the active round-robin.
    TenantResumed,
    /// A completion carried a piggybacked credit grant to a tenant.
    CreditGranted {
        /// The granted outstanding-IO allowance.
        credit: u32,
    },
    /// A client halved its credit allowance after a timeout.
    CreditHalved {
        /// Allowance before the halving.
        before: u32,
        /// Allowance after (floored at 1).
        after: u32,
    },
    /// The flash device ran a garbage-collection cycle on a die.
    SsdGc {
        /// Die index.
        die: u32,
    },
    /// A command hit an injected GC-storm window and stalls.
    SsdStall {
        /// Virtual-time instant (ns) at which the storm clears.
        release_ns: u64,
    },
    /// The fault injector consumed a capsule in the fabric.
    FaultInjected {
        /// Which capsule was lost.
        capsule: CapsuleKind,
    },
    /// An initiator timer fired and the command was retransmitted.
    RetryScheduled {
        /// Raw command id.
        cmd: u64,
        /// Retransmission attempt number (1 = first retry).
        attempt: u32,
        /// Backoff timer armed for the new attempt, ns.
        timeout_ns: u64,
    },
    /// A command exhausted its retry budget and errored out client-side.
    TimedOut {
        /// Raw command id.
        cmd: u64,
        /// Attempts consumed, including the original transmission.
        attempts: u32,
    },
    /// A read was served entirely from the NIC-DRAM cache.
    CacheHit {
        /// Lines the command spans.
        lines: u32,
    },
    /// A read had missing lines and went to the device.
    CacheMiss {
        /// Lines absent from the cache.
        lines_missing: u32,
    },
    /// A miss completion was admitted and lines were filled.
    CacheFill {
        /// Lines filled.
        lines: u32,
        /// How many of them were ghost-queue hits (proven reuse).
        ghost_hits: u32,
    },
    /// A resident line left the cache (capacity eviction or write
    /// invalidation).
    CacheEvict {
        /// Line id.
        line: u64,
        /// Whether the id was remembered in the tenant's ghost queue.
        to_ghost: bool,
    },
    /// The cache's congestion classifier changed regime, toggling the
    /// admission law.
    CacheAdmitToggle {
        /// Regime before the sample.
        from: CongState,
        /// Regime after.
        to: CongState,
    },
    /// A failed device write dropped dirty staged lines (typed loss).
    CacheStagedLoss {
        /// Raw id of the failed write.
        cmd: u64,
        /// Dirty lines invalidated.
        lines: u32,
    },
    /// A write acknowledged at DRAM cost under write-back.
    CacheWriteBackAck {
        /// Raw id of the acknowledged write.
        cmd: u64,
        /// Lines the write spans (now dirty).
        lines: u32,
    },
    /// The write-back flusher submitted a device write for a dirty line.
    CacheFlushIssued {
        /// Flush command id (high-bit flush id space).
        id: u64,
        /// Line being written back.
        line: u64,
    },
    /// A flush write completed at the device.
    CacheFlushDone {
        /// Flush command id.
        id: u64,
        /// Line the flush carried.
        line: u64,
        /// Whether the line went back to the flush queue (transient failure
        /// or re-dirty race) instead of coming clean.
        requeued: bool,
    },
    /// Simulated NIC power loss cleared the cache cold.
    CachePowerLoss {
        /// Write-back dirty lines surfaced as losses.
        lines_lost: u32,
    },
    /// The device died; the write-back flusher stopped for good.
    CacheDeviceDeath {
        /// Write-back dirty lines surfaced as losses.
        lines_lost: u32,
    },
    /// The escalation ladder marked a rack node suspect after repeated
    /// silent timeouts; subsequent IOs reroute around it.
    NodeSuspected {
        /// The suspected node.
        node: u32,
    },
    /// An IO abandoned its target and was re-issued to a surviving replica.
    Rerouted {
        /// Raw id of the abandoned physical command.
        cmd: u64,
        /// The node given up on.
        from_node: u32,
        /// The surviving node now serving the IO.
        to_node: u32,
    },
    /// A node-death fault fired: the node falls silent for good.
    NodeDead {
        /// The dead node.
        node: u32,
    },
    /// A capsule crossed a fault-degraded ToR link and paid extra latency.
    LinkDegraded {
        /// The node whose link is degraded.
        node: u32,
    },
    /// The broker granted a borrow: the stamped tenant took tokens from
    /// `lender`'s entitlement account on the stamped SSD.
    TokenBorrowed {
        /// The tenant whose headroom was tapped.
        lender: u32,
        /// Bytes of principal transferred.
        bytes: u64,
    },
    /// An epoch settlement repaid a (borrower, lender) debt in full.
    DebtRepaid {
        /// The tenant being repaid.
        lender: u32,
        /// Principal returned, bytes.
        principal: u64,
        /// Deterministic interest paid on top, bytes.
        interest: u64,
    },
    /// A debt was forgiven because one endpoint left the SSD (worker
    /// stop, device death, node death, or a placement migration).
    DebtForgiven {
        /// The lender side of the forgiven pair.
        lender: u32,
        /// Outstanding principal written off, bytes.
        bytes: u64,
    },
    /// The placement layer moved the stamped tenant to a new SSD at an
    /// epoch boundary.
    TenantMigrated {
        /// SSD the tenant was charged on before the move.
        from_ssd: u32,
        /// SSD the tenant is assigned to after the move.
        to_ssd: u32,
    },
    /// The core scheduler executed the stamped pipeline's poll quantum on
    /// an idle neighbor instead of its busy home core.
    QuantumStolen {
        /// The pipeline's home core, busy at quantum start.
        from_core: u32,
        /// The idle core that ran the quantum.
        to_core: u32,
    },
    /// A rebalance epoch moved the stamped pipeline's home core.
    HomeRebalanced {
        /// Home core before the rebalance pass.
        from_core: u32,
        /// Home core afterwards.
        to_core: u32,
    },
}

impl EventKind {
    /// The subsystem this event belongs to.
    pub const fn component(&self) -> Component {
        match self {
            EventKind::CongestionTransition { .. } => Component::Congestion,
            EventKind::RateUpdate { .. }
            | EventKind::BucketRefill { .. }
            | EventKind::OverflowTransfer { .. } => Component::Rate,
            EventKind::WriteCostStep { .. } => Component::WriteCost,
            EventKind::SlotOpened { .. }
            | EventKind::SlotClosed { .. }
            | EventKind::SlotFreed { .. }
            | EventKind::TenantDeferred { .. }
            | EventKind::TenantResumed => Component::Scheduler,
            EventKind::CreditGranted { .. } | EventKind::CreditHalved { .. } => Component::Credit,
            EventKind::SsdGc { .. } | EventKind::SsdStall { .. } => Component::Ssd,
            EventKind::FaultInjected { .. }
            | EventKind::RetryScheduled { .. }
            | EventKind::TimedOut { .. } => Component::Fabric,
            EventKind::CacheHit { .. }
            | EventKind::CacheMiss { .. }
            | EventKind::CacheFill { .. }
            | EventKind::CacheEvict { .. }
            | EventKind::CacheAdmitToggle { .. }
            | EventKind::CacheStagedLoss { .. }
            | EventKind::CacheWriteBackAck { .. }
            | EventKind::CacheFlushIssued { .. }
            | EventKind::CacheFlushDone { .. }
            | EventKind::CachePowerLoss { .. }
            | EventKind::CacheDeviceDeath { .. } => Component::Cache,
            EventKind::NodeSuspected { .. }
            | EventKind::Rerouted { .. }
            | EventKind::NodeDead { .. }
            | EventKind::LinkDegraded { .. } => Component::Rack,
            EventKind::TokenBorrowed { .. }
            | EventKind::DebtRepaid { .. }
            | EventKind::DebtForgiven { .. }
            | EventKind::TenantMigrated { .. } => Component::Broker,
            EventKind::QuantumStolen { .. } | EventKind::HomeRebalanced { .. } => Component::Cores,
        }
    }

    /// The one payload schema: hands `f` the interned event name
    /// (snake_case, stable across runs) and the ordered `(json_key, value)`
    /// payload. The trace digest and both exporters read this list, so an
    /// event is one variant plus one arm here.
    pub(crate) fn schema<R>(&self, f: impl FnOnce(&'static str, &Fields) -> R) -> R {
        use Field::{Bool, Io, Label, State, F64, U32, U64};
        let (name, fields): (&'static str, &Fields) = match *self {
            EventKind::CongestionTransition {
                io,
                from,
                to,
                ewma_ns,
                thresh_before_ns,
                thresh_after_ns,
            } => (
                "congestion_transition",
                &[
                    ("io", Io(io)),
                    ("from", State(from)),
                    ("to", State(to)),
                    ("ewma_ns", F64(ewma_ns)),
                    ("thresh_before_ns", F64(thresh_before_ns)),
                    ("thresh_after_ns", F64(thresh_after_ns)),
                ],
            ),
            EventKind::RateUpdate {
                io,
                state,
                old_bps,
                new_bps,
            } => (
                "rate_update",
                &[
                    ("io", Io(io)),
                    ("state", State(state)),
                    ("old_bps", F64(old_bps)),
                    ("bps", F64(new_bps)),
                ],
            ),
            EventKind::BucketRefill {
                read_tokens,
                write_tokens,
            } => (
                "bucket_refill",
                &[("read", F64(read_tokens)), ("write", F64(write_tokens))],
            ),
            EventKind::OverflowTransfer {
                direction,
                amount,
                src_tokens,
            } => (
                "overflow_transfer",
                &[
                    ("direction", Label(direction.name())),
                    ("amount", F64(amount)),
                    ("src_tokens", F64(src_tokens)),
                ],
            ),
            EventKind::WriteCostStep {
                old_cost,
                new_cost,
                below_min,
            } => (
                "write_cost_step",
                &[
                    ("old_cost", F64(old_cost)),
                    ("new_cost", F64(new_cost)),
                    ("below_min", Bool(below_min)),
                ],
            ),
            EventKind::SlotOpened { slot } => ("slot_opened", &[("slot", U32(slot))]),
            EventKind::SlotClosed { slot, submits } => (
                "slot_closed",
                &[("slot", U32(slot)), ("submits", U32(submits))],
            ),
            EventKind::SlotFreed { slot, credit_ios } => (
                "slot_freed",
                &[("slot", U32(slot)), ("credit_ios", U32(credit_ios))],
            ),
            EventKind::TenantDeferred { queued } => ("tenant_deferred", &[("queued", U32(queued))]),
            EventKind::TenantResumed => ("tenant_resumed", &[]),
            EventKind::CreditGranted { credit } => ("credit_granted", &[("credit", U32(credit))]),
            EventKind::CreditHalved { before, after } => (
                "credit_halved",
                &[("before", U32(before)), ("after", U32(after))],
            ),
            EventKind::SsdGc { die } => ("ssd_gc", &[("die", U32(die))]),
            EventKind::SsdStall { release_ns } => ("ssd_stall", &[("release_ns", U64(release_ns))]),
            EventKind::FaultInjected { capsule } => {
                ("fault_injected", &[("capsule", Label(capsule.name()))])
            }
            EventKind::RetryScheduled {
                cmd,
                attempt,
                timeout_ns,
            } => (
                "retry_scheduled",
                &[
                    ("cmd", U64(cmd)),
                    ("attempt", U32(attempt)),
                    ("timeout_ns", U64(timeout_ns)),
                ],
            ),
            EventKind::TimedOut { cmd, attempts } => (
                "timed_out",
                &[("cmd", U64(cmd)), ("attempts", U32(attempts))],
            ),
            EventKind::CacheHit { lines } => ("cache_hit", &[("lines", U32(lines))]),
            EventKind::CacheMiss { lines_missing } => {
                ("cache_miss", &[("lines_missing", U32(lines_missing))])
            }
            EventKind::CacheFill { lines, ghost_hits } => (
                "cache_fill",
                &[("lines", U32(lines)), ("ghost_hits", U32(ghost_hits))],
            ),
            EventKind::CacheEvict { line, to_ghost } => (
                "cache_evict",
                &[("line", U64(line)), ("to_ghost", Bool(to_ghost))],
            ),
            EventKind::CacheAdmitToggle { from, to } => (
                "cache_admit_toggle",
                &[("from", State(from)), ("to", State(to))],
            ),
            EventKind::CacheStagedLoss { cmd, lines } => (
                "cache_staged_loss",
                &[("cmd", U64(cmd)), ("lines", U32(lines))],
            ),
            EventKind::CacheWriteBackAck { cmd, lines } => {
                ("cache_wb_ack", &[("cmd", U64(cmd)), ("lines", U32(lines))])
            }
            EventKind::CacheFlushIssued { id, line } => (
                "cache_flush_issued",
                &[("id", U64(id)), ("line", U64(line))],
            ),
            EventKind::CacheFlushDone { id, line, requeued } => (
                "cache_flush_done",
                &[
                    ("id", U64(id)),
                    ("line", U64(line)),
                    ("requeued", Bool(requeued)),
                ],
            ),
            EventKind::CachePowerLoss { lines_lost } => {
                ("cache_power_loss", &[("lines_lost", U32(lines_lost))])
            }
            EventKind::CacheDeviceDeath { lines_lost } => {
                ("cache_device_death", &[("lines_lost", U32(lines_lost))])
            }
            EventKind::NodeSuspected { node } => ("node_suspected", &[("node", U32(node))]),
            EventKind::Rerouted {
                cmd,
                from_node,
                to_node,
            } => (
                "rerouted",
                &[
                    ("cmd", U64(cmd)),
                    ("from_node", U32(from_node)),
                    ("to_node", U32(to_node)),
                ],
            ),
            EventKind::NodeDead { node } => ("node_dead", &[("node", U32(node))]),
            EventKind::LinkDegraded { node } => ("link_degraded", &[("node", U32(node))]),
            EventKind::TokenBorrowed { lender, bytes } => (
                "token_borrowed",
                &[("lender", U32(lender)), ("bytes", U64(bytes))],
            ),
            EventKind::DebtRepaid {
                lender,
                principal,
                interest,
            } => (
                "debt_repaid",
                &[
                    ("lender", U32(lender)),
                    ("principal", U64(principal)),
                    ("interest", U64(interest)),
                ],
            ),
            EventKind::DebtForgiven { lender, bytes } => (
                "debt_forgiven",
                &[("lender", U32(lender)), ("bytes", U64(bytes))],
            ),
            EventKind::TenantMigrated { from_ssd, to_ssd } => (
                "tenant_migrated",
                &[("from_ssd", U32(from_ssd)), ("to_ssd", U32(to_ssd))],
            ),
            EventKind::QuantumStolen { from_core, to_core } => (
                "quantum_stolen",
                &[("from_core", U32(from_core)), ("to_core", U32(to_core))],
            ),
            EventKind::HomeRebalanced { from_core, to_core } => (
                "home_rebalanced",
                &[("from_core", U32(from_core)), ("to_core", U32(to_core))],
            ),
        };
        f(name, fields)
    }

    /// Interned event name (snake_case, stable across runs).
    pub fn name(&self) -> &'static str {
        self.schema(|name, _| name)
    }

    /// Fold the name and every payload field into `d`, in schema order.
    pub fn fold_into(&self, d: &mut Digest) {
        self.schema(|name, fields| {
            d.update(name.as_bytes());
            for &(_, value) in fields {
                value.fold_into(d);
            }
        });
    }
}

/// An event's ordered payload: `(json_key, value)` pairs.
pub(crate) type Fields = [(&'static str, Field)];

/// One payload value of an [`EventKind`]: what the trace digest folds and
/// the exporters render.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Field {
    /// An integer.
    U64(u64),
    /// A narrow integer; folded widened to a `u64`.
    U32(u32),
    /// A float; folded by bit pattern, exported as a number or `null`.
    F64(f64),
    /// A flag; folded as 0/1, exported as `true`/`false`.
    Bool(bool),
    /// An interned label; folded as its bytes, exported as a string.
    Label(&'static str),
    /// An IO type; folded as its index, exported as `"read"`/`"write"`.
    Io(IoType),
    /// A congestion state; folded as its rank, exported as its name.
    State(CongState),
}

impl Field {
    fn fold_into(self, d: &mut Digest) {
        match self {
            Field::U64(v) => d.update_u64(v),
            Field::U32(v) => d.update_u64(u64::from(v)),
            Field::F64(v) => d.update_f64(v),
            Field::Bool(v) => d.update_u64(u64::from(v)),
            Field::Label(s) => d.update(s.as_bytes()),
            Field::Io(io) => d.update_u64(io.index() as u64),
            Field::State(s) => d.update_u64(u64::from(s.rank())),
        };
    }
}

/// One recorded event: a payload stamped with where and when.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Monotone sequence number, global across the tracer.
    pub seq: u64,
    /// Virtual-time instant of the decision.
    pub at: SimTime,
    /// The SSD/pipeline the event belongs to.
    pub ssd: SsdId,
    /// The tenant involved, when the event is tenant-scoped.
    pub tenant: Option<TenantId>,
    /// The decision itself.
    pub kind: EventKind,
}

impl Event {
    /// The component label (delegates to the kind).
    pub const fn component(&self) -> Component {
        self.kind.component()
    }

    /// The event name label (delegates to the kind).
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Fold the full event — stamp and payload — into `d`.
    pub(crate) fn fold_into(&self, d: &mut Digest) {
        d.update_u64(self.seq);
        d.update_u64(self.at.as_nanos());
        d.update_u64(u64::from(self.ssd.index() as u32));
        d.update_u64(self.tenant.map_or(0, |t| 1 + t.index() as u64));
        self.kind.fold_into(d);
    }
}

#[cfg(test)]
impl CongState {
    /// Whether `a → b` moves at most one rung on the pressure ladder.
    pub(crate) fn adjacent(a: CongState, b: CongState) -> bool {
        a.rank().abs_diff(b.rank()) <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gimbal_fabric::IoType;

    #[test]
    fn ranks_order_the_pressure_ladder() {
        assert!(CongState::Underutilized.rank() < CongState::CongestionAvoidance.rank());
        assert!(CongState::CongestionAvoidance.rank() < CongState::Congested.rank());
        assert!(CongState::Congested.rank() < CongState::Overloaded.rank());
        assert!(CongState::adjacent(
            CongState::Congested,
            CongState::Overloaded
        ));
        assert!(CongState::adjacent(
            CongState::Congested,
            CongState::Congested
        ));
        assert!(!CongState::adjacent(
            CongState::Underutilized,
            CongState::Congested
        ));
    }

    #[test]
    fn every_component_has_a_distinct_label() {
        let mut names: Vec<&str> = Component::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Component::ALL.len());
    }

    #[test]
    fn digest_is_deterministic_and_field_sensitive() {
        let ev = Event {
            seq: 3,
            at: SimTime::from_micros(10),
            ssd: SsdId(1),
            tenant: Some(TenantId(2)),
            kind: EventKind::RateUpdate {
                io: IoType::Read,
                state: CongState::Congested,
                old_bps: 2.0e9,
                new_bps: 1.9e9,
            },
        };
        let fold = |e: &Event| {
            let mut d = Digest::new();
            e.fold_into(&mut d);
            d.value()
        };
        assert_eq!(fold(&ev), fold(&ev), "same event, same digest");
        let mut tweaked = ev;
        tweaked.kind = EventKind::RateUpdate {
            io: IoType::Read,
            state: CongState::Congested,
            old_bps: 2.0e9,
            new_bps: 1.8e9,
        };
        assert_ne!(fold(&ev), fold(&tweaked), "payload change must show");
        let mut anon = ev;
        anon.tenant = None;
        assert_ne!(fold(&ev), fold(&anon), "tenant stamp must show");
    }
}
