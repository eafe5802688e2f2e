//! The target-side policy interface and the pass-through FIFO policy.

use gimbal_fabric::{NvmeCmd, SsdId, TenantId};
use gimbal_sim::{SimDuration, SimTime};
use gimbal_telemetry::TraceHandle;
use std::collections::VecDeque;

/// A request as seen by a switch policy: the NVMe command plus the instant
/// it became schedulable at the target (capsule parsed, write payload
/// fetched, CPU charged).
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// The command.
    pub cmd: NvmeCmd,
    /// When the request entered the policy's queues.
    pub ready_at: SimTime,
}

/// Completion information handed to a policy.
#[derive(Clone, Copy, Debug)]
pub struct CompletionInfo {
    /// The original command.
    pub cmd: NvmeCmd,
    /// Device service latency (submission to the SSD → completion from the
    /// SSD). This is the latency Gimbal's congestion control observes —
    /// "a raw device latency measured directly in Gimbal" (Fig 9 caption).
    pub device_latency: SimDuration,
    /// Instant the device completed the command.
    pub completed_at: SimTime,
    /// Whether the device reported an error (injected flash failure).
    /// Policies must still release scheduling state but should not feed
    /// error latencies into congestion estimation.
    pub failed: bool,
}

/// What a policy wants to do next.
#[derive(Clone, Copy, Debug)]
pub enum PolicyPoll {
    /// Submit this queued request to the device now.
    Submit(Request),
    /// Nothing submittable before this instant (rate pacing, token refill).
    WaitUntil(SimTime),
    /// Nothing to do until an arrival or completion occurs.
    Idle,
}

/// A target-side multi-tenancy policy for one SSD pipeline.
///
/// The pipeline calls [`SwitchPolicy::next_submission`] in a loop after every
/// arrival, completion, and timer wake; the policy owns all queueing between
/// those hooks.
pub trait SwitchPolicy {
    /// A new request is schedulable.
    fn on_arrival(&mut self, req: Request, now: SimTime);

    /// Ask for the next device submission. `device_inflight` is the number
    /// of commands currently outstanding at the SSD.
    fn next_submission(&mut self, now: SimTime, device_inflight: usize) -> PolicyPoll;

    /// A command completed at the device.
    fn on_completion(&mut self, info: &CompletionInfo, now: SimTime);

    /// The credit grant to piggyback on a completion to `tenant`
    /// (§3.6); `None` for schemes without credit-based flow control.
    fn credit_for(&mut self, tenant: TenantId) -> Option<u32> {
        let _ = tenant;
        None
    }

    /// Number of requests queued (not yet submitted to the device).
    fn queued(&self) -> usize;

    /// Short scheme name for reports ("gimbal", "reflex", ...).
    fn name(&self) -> &'static str;

    /// Downcast hook so experiments can sample policy-internal state
    /// (e.g. Gimbal's dynamic threshold trace for Fig 18).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Attach a telemetry handle; `ssd` stamps this pipeline's events.
    /// Policies without instrumentation ignore it (the default).
    fn attach_trace(&mut self, trace: TraceHandle, ssd: SsdId) {
        let _ = (trace, ssd);
    }
}

/// Pass-through FIFO: submit every request immediately in arrival order,
/// optionally capped at a device queue depth.
///
/// This is both the "vanilla" NVMe-oF target used for the characterization
/// experiments (Figs 4, 19–23) and the target side of Parda (whose control
/// runs at the client).
#[derive(Debug)]
pub struct FifoPolicy {
    queue: VecDeque<Request>,
    max_inflight: usize,
}

impl FifoPolicy {
    /// FIFO with effectively unlimited device queue depth.
    pub fn new() -> Self {
        Self::with_depth(usize::MAX)
    }

    /// FIFO that keeps at most `depth` commands outstanding at the device.
    pub(crate) fn with_depth(depth: usize) -> Self {
        FifoPolicy {
            queue: VecDeque::new(),
            max_inflight: depth.max(1),
        }
    }
}

impl Default for FifoPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SwitchPolicy for FifoPolicy {
    fn on_arrival(&mut self, req: Request, _now: SimTime) {
        self.queue.push_back(req);
    }

    fn next_submission(&mut self, _now: SimTime, device_inflight: usize) -> PolicyPoll {
        if device_inflight >= self.max_inflight {
            return PolicyPoll::Idle;
        }
        match self.queue.pop_front() {
            Some(req) => PolicyPoll::Submit(req),
            None => PolicyPoll::Idle,
        }
    }

    fn on_completion(&mut self, _info: &CompletionInfo, _now: SimTime) {}

    fn queued(&self) -> usize {
        self.queue.len()
    }

    fn name(&self) -> &'static str {
        "fifo"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gimbal_fabric::{CmdId, IoType, Priority, SsdId};

    fn req(id: u64) -> Request {
        Request {
            cmd: NvmeCmd {
                id: CmdId(id),
                tenant: TenantId(0),
                ssd: SsdId(0),
                opcode: IoType::Read,
                lba: 0,
                len: 4096,
                priority: Priority::NORMAL,
                issued_at: SimTime::ZERO,
                wal: None,
            },
            ready_at: SimTime::ZERO,
        }
    }

    #[test]
    fn fifo_preserves_order() {
        let mut p = FifoPolicy::new();
        p.on_arrival(req(1), SimTime::ZERO);
        p.on_arrival(req(2), SimTime::ZERO);
        assert_eq!(p.queued(), 2);
        match p.next_submission(SimTime::ZERO, 0) {
            PolicyPoll::Submit(r) => assert_eq!(r.cmd.id, CmdId(1)),
            other => panic!("{other:?}"),
        }
        match p.next_submission(SimTime::ZERO, 1) {
            PolicyPoll::Submit(r) => assert_eq!(r.cmd.id, CmdId(2)),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            p.next_submission(SimTime::ZERO, 2),
            PolicyPoll::Idle
        ));
    }

    #[test]
    fn fifo_respects_depth_cap() {
        let mut p = FifoPolicy::with_depth(2);
        for i in 0..3 {
            p.on_arrival(req(i), SimTime::ZERO);
        }
        assert!(matches!(
            p.next_submission(SimTime::ZERO, 0),
            PolicyPoll::Submit(_)
        ));
        assert!(matches!(
            p.next_submission(SimTime::ZERO, 1),
            PolicyPoll::Submit(_)
        ));
        assert!(matches!(
            p.next_submission(SimTime::ZERO, 2),
            PolicyPoll::Idle
        ));
        assert_eq!(p.queued(), 1);
    }

    #[test]
    fn fifo_has_no_credits() {
        let mut p = FifoPolicy::new();
        assert_eq!(p.credit_for(TenantId(0)), None);
        assert_eq!(p.name(), "fifo");
    }
}
