//! Seeded, deterministic fault injection (§3.6 / §4.3 failure handling).
//!
//! A [`FaultPlan`] declares *what can go wrong* during a run: fabric capsule
//! loss (per-message probability plus burst windows in which every capsule
//! dies), per-SSD transient IO errors, GC-storm latency stalls, and permanent
//! device failure at a fixed instant. A [`FaultInjector`] turns the plan into
//! concrete per-event decisions using dedicated [`SimRng`] streams, so
//!
//! * the fault schedule is reproducible per seed (chaos runs are replayable
//!   bit-for-bit), and
//! * fault draws never perturb the workload or device RNG streams — the same
//!   workload unfolds whether or not faults fire.
//!
//! Probabilistic draws only happen when the corresponding probability is
//! non-zero, so an all-zero plan consumes no randomness at all and a run with
//! `FaultPlan::default()` is byte-identical to a fault-free run.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// RNG stream for fabric-level capsule-loss draws.
const FABRIC_FAULT_STREAM: u64 = 0xFA17;
/// RNG stream base for per-SSD fault draws (offset by SSD index).
const SSD_FAULT_STREAM: u64 = 0xFA17_0100;

/// A half-open window `[start, end)` of virtual time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultWindow {
    /// First instant inside the window.
    pub start: SimTime,
    /// First instant after the window.
    pub end: SimTime,
}

impl FaultWindow {
    /// Build a window; `end` must not precede `start`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        assert!(end >= start, "window ends before it starts");
        FaultWindow { start, end }
    }

    /// Whether `t` falls inside the window.
    pub(crate) fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }
}

/// Fault specification for one SSD.
#[derive(Clone, Debug, Default)]
pub struct SsdFaultSpec {
    /// Probability that a submitted command fails with a transient device
    /// error (completes with an error status at controller latency).
    pub transient_error_prob: f64,
    /// GC-storm windows: commands submitted inside a window are not serviced
    /// until the window closes, inflating their latency by the remaining
    /// window span (the stall the congestion controller must survive).
    pub stall_windows: Vec<FaultWindow>,
    /// Permanent device death: at and after this instant every command
    /// completes with an error, fast (the §4.3 replication scenario).
    pub fail_at: Option<SimTime>,
}

impl SsdFaultSpec {
    /// Whether this spec injects nothing.
    pub fn is_noop(&self) -> bool {
        self.transient_error_prob == 0.0 && self.stall_windows.is_empty() && self.fail_at.is_none()
    }

    /// Panic on out-of-range probabilities.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.transient_error_prob),
            "transient_error_prob out of [0,1]"
        );
    }

    /// If `now` falls inside a stall window, the instant the storm clears.
    pub fn stall_release(&self, now: SimTime) -> Option<SimTime> {
        self.stall_windows
            .iter()
            .filter(|w| w.contains(now))
            .map(|w| w.end)
            .max()
    }
}

/// Fault specification for one rack node (a whole JBOF behind one ToR port).
///
/// Node faults compose with the per-SSD specs: a node-scoped GC storm is a
/// *correlated* storm — it stalls every SSD inside the node at once — while
/// [`SsdFaultSpec::stall_windows`] stalls one device. Node death and
/// partitions act at the ToR link, so in-flight capsules in either direction
/// are lost and only the initiator-side retry ladder recovers the IOs.
#[derive(Clone, Debug, Default)]
pub struct NodeFaultSpec {
    /// Whole-node death: at and after this instant the node falls silent —
    /// capsules to and from it are dropped at the ToR and its pipelines stop
    /// being pumped (the rack-scale §4.3 replication scenario).
    pub die_at: Option<SimTime>,
    /// Link-degradation windows: capsules crossing the node's ToR link
    /// inside a window incur [`Self::degrade_extra`] additional one-way
    /// latency (a flapping optic, an incast-throttled uplink).
    pub degrade_windows: Vec<FaultWindow>,
    /// Extra one-way latency applied inside [`Self::degrade_windows`].
    pub degrade_extra: SimDuration,
    /// Partition windows: every capsule to or from the node is dropped while
    /// a window is open; the node itself keeps running (split brain, not
    /// death — it comes back).
    pub partition_windows: Vec<FaultWindow>,
    /// Correlated GC-storm windows: every SSD inside the node stalls for the
    /// window, and the node advertises itself GC-busy to the routing layer.
    pub gc_storm_windows: Vec<FaultWindow>,
}

impl NodeFaultSpec {
    /// Whether this spec injects nothing.
    pub(crate) fn is_noop(&self) -> bool {
        self.die_at.is_none()
            && self.partition_windows.is_empty()
            && self.gc_storm_windows.is_empty()
            && (self.degrade_windows.is_empty() || self.degrade_extra == SimDuration::ZERO)
    }

    /// Panic on a degenerate spec.
    pub(crate) fn validate(&self) {
        if !self.degrade_windows.is_empty() {
            assert!(
                self.degrade_extra > SimDuration::ZERO,
                "degrade windows without extra latency"
            );
        }
    }

    /// Whether the node is dead at `t`.
    pub fn dead(&self, t: SimTime) -> bool {
        self.die_at.is_some_and(|d| t >= d)
    }

    /// Whether the node is partitioned from the ToR at `t`.
    pub fn partitioned(&self, t: SimTime) -> bool {
        self.partition_windows.iter().any(|w| w.contains(t))
    }

    /// Extra one-way link latency for a capsule crossing at `t`, if the
    /// link is degraded then.
    pub fn link_extra(&self, t: SimTime) -> Option<SimDuration> {
        (self.degrade_extra > SimDuration::ZERO
            && self.degrade_windows.iter().any(|w| w.contains(t)))
        .then_some(self.degrade_extra)
    }
}

/// The full fault plan for a run. `Default` is the empty (fault-free) plan.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Probability an individual command capsule is lost in the fabric.
    pub cmd_loss_prob: f64,
    /// Probability an individual completion capsule is lost in the fabric.
    pub cpl_loss_prob: f64,
    /// Burst-loss windows: every capsule transmitted inside one is dropped
    /// (a fabric brown-out, deterministic regardless of the RNG).
    pub burst_windows: Vec<FaultWindow>,
    /// Per-SSD fault specs, indexed by SSD; missing entries are fault-free.
    pub ssd: Vec<SsdFaultSpec>,
    /// Per-node fault specs, indexed by rack node; missing entries are
    /// fault-free. Single-node engines ignore these entirely, so a plan whose
    /// node faults target absent nodes is equivalent to one without them.
    pub nodes: Vec<NodeFaultSpec>,
    /// Simulated NIC power loss at this instant: every byte of NIC DRAM —
    /// cache lines, and in particular write-back dirty lines — vanishes.
    /// The SSDs and the rest of the testbed keep running, so the run
    /// surfaces exactly what acked-but-unflushed data was lost. The
    /// crash-consistency oracle checks that accounting.
    pub power_loss_at: Option<SimTime>,
}

impl FaultPlan {
    /// Panic on out-of-range probabilities.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.cmd_loss_prob),
            "cmd_loss_prob out of [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.cpl_loss_prob),
            "cpl_loss_prob out of [0,1]"
        );
        for s in &self.ssd {
            s.validate();
        }
        for n in &self.nodes {
            n.validate();
        }
    }

    /// The fault spec for SSD `i` (empty spec when the plan has none).
    pub fn ssd_spec(&self, i: usize) -> Option<&SsdFaultSpec> {
        self.ssd.get(i).filter(|s| !s.is_noop())
    }

    /// The fault spec for rack node `i` (empty spec when the plan has none).
    pub fn node_spec(&self, i: usize) -> Option<&NodeFaultSpec> {
        self.nodes.get(i).filter(|n| !n.is_noop())
    }

    fn node_mut(&mut self, node: usize) -> &mut NodeFaultSpec {
        if self.nodes.len() <= node {
            self.nodes.resize(node + 1, NodeFaultSpec::default());
        }
        &mut self.nodes[node]
    }

    /// Builder: kill node `node` at `at` (intermediate entries pad fault-free).
    pub fn with_node_death(mut self, node: usize, at: SimTime) -> Self {
        self.node_mut(node).die_at = Some(at);
        self
    }

    /// Builder: partition node `node` from the ToR during `w`.
    pub fn with_node_partition(mut self, node: usize, w: FaultWindow) -> Self {
        self.node_mut(node).partition_windows.push(w);
        self
    }

    /// Builder: correlated GC storm on every SSD of node `node` during `w`.
    pub fn with_node_gc_storm(mut self, node: usize, w: FaultWindow) -> Self {
        self.node_mut(node).gc_storm_windows.push(w);
        self
    }

    /// Builder: degrade node `node`'s ToR link by `extra` one-way during `w`.
    pub fn with_node_degrade(mut self, node: usize, w: FaultWindow, extra: SimDuration) -> Self {
        let spec = self.node_mut(node);
        spec.degrade_windows.push(w);
        spec.degrade_extra = extra;
        self
    }

    /// The dedicated RNG for SSD `i`'s fault draws. Device-internal faults
    /// draw from this stream so they never disturb the device's timing RNG.
    pub fn device_rng(seed: u64, ssd: usize) -> SimRng {
        SimRng::with_stream(seed, SSD_FAULT_STREAM + ssd as u64)
    }
}

/// Turns a [`FaultPlan`] into deterministic per-capsule decisions for the
/// fabric, and counts what it injected.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimRng,
    /// Command capsules dropped so far.
    pub cmd_drops: u64,
    /// Completion capsules dropped so far.
    pub cpl_drops: u64,
}

impl FaultInjector {
    /// Build an injector over `plan`; all fabric draws come from a dedicated
    /// stream of `seed`.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        plan.validate();
        FaultInjector {
            plan,
            rng: SimRng::with_stream(seed, FABRIC_FAULT_STREAM),
            cmd_drops: 0,
            cpl_drops: 0,
        }
    }

    fn in_burst(&self, now: SimTime) -> bool {
        self.plan.burst_windows.iter().any(|w| w.contains(now))
    }

    /// Whether the command capsule transmitted at `now` is lost.
    pub fn drop_command(&mut self, now: SimTime) -> bool {
        let dropped = self.in_burst(now)
            || (self.plan.cmd_loss_prob > 0.0 && self.rng.gen_bool(self.plan.cmd_loss_prob));
        if dropped {
            self.cmd_drops += 1;
        }
        dropped
    }

    /// Whether the completion capsule transmitted at `now` is lost.
    pub fn drop_completion(&mut self, now: SimTime) -> bool {
        let dropped = self.in_burst(now)
            || (self.plan.cpl_loss_prob > 0.0 && self.rng.gen_bool(self.plan.cpl_loss_prob));
        if dropped {
            self.cpl_drops += 1;
        }
        dropped
    }
}

#[cfg(test)]
impl FaultInjector {
    /// The plan in effect.
    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

#[cfg(test)]
impl FaultPlan {
    /// Whether the plan injects nothing at all.
    pub(crate) fn is_noop(&self) -> bool {
        self.cmd_loss_prob == 0.0
            && self.cpl_loss_prob == 0.0
            && self.burst_windows.is_empty()
            && self.ssd.iter().all(SsdFaultSpec::is_noop)
            && self.nodes.iter().all(NodeFaultSpec::is_noop)
            && self.power_loss_at.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn default_plan_is_noop_and_draws_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::default(), 1);
        assert!(inj.plan().is_noop());
        for i in 0..1000 {
            assert!(!inj.drop_command(t(i)));
            assert!(!inj.drop_completion(t(i)));
        }
        assert_eq!(inj.cmd_drops + inj.cpl_drops, 0);
    }

    #[test]
    fn burst_window_drops_everything_inside_only() {
        let plan = FaultPlan {
            burst_windows: vec![FaultWindow::new(t(100), t(200))],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 1);
        assert!(!inj.drop_command(t(99)));
        assert!(inj.drop_command(t(100)));
        assert!(inj.drop_completion(t(199)));
        assert!(!inj.drop_completion(t(200)), "half-open window");
        assert_eq!(inj.cmd_drops, 1);
        assert_eq!(inj.cpl_drops, 1);
    }

    #[test]
    fn probabilistic_loss_is_seed_deterministic_and_near_rate() {
        let plan = FaultPlan {
            cmd_loss_prob: 0.1,
            ..FaultPlan::default()
        };
        let run = |seed| {
            let mut inj = FaultInjector::new(plan.clone(), seed);
            (0..10_000)
                .map(|i| inj.drop_command(t(i)))
                .collect::<Vec<_>>()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same drops");
        assert_ne!(a, run(8), "different seed diverges");
        let drops = a.iter().filter(|&&d| d).count();
        assert!((800..1200).contains(&drops), "~10% loss: {drops}");
    }

    #[test]
    fn stall_release_returns_latest_covering_window_end() {
        let spec = SsdFaultSpec {
            stall_windows: vec![
                FaultWindow::new(t(0), t(50)),
                FaultWindow::new(t(40), t(90)),
            ],
            ..SsdFaultSpec::default()
        };
        assert_eq!(spec.stall_release(t(45)), Some(t(90)));
        assert_eq!(spec.stall_release(t(10)), Some(t(50)));
        assert_eq!(spec.stall_release(t(90)), None);
    }

    #[test]
    fn ssd_spec_lookup_skips_noop_entries() {
        let plan = FaultPlan {
            ssd: vec![
                SsdFaultSpec::default(),
                SsdFaultSpec {
                    fail_at: Some(t(5)),
                    ..SsdFaultSpec::default()
                },
            ],
            ..FaultPlan::default()
        };
        assert!(plan.ssd_spec(0).is_none());
        assert!(plan.ssd_spec(1).is_some());
        assert!(plan.ssd_spec(2).is_none());
        assert!(!plan.is_noop());
    }

    #[test]
    fn overlapping_burst_windows_drop_each_capsule_once() {
        // Two windows covering the same instant must not double-count a drop
        // or consume extra randomness: `in_burst` is a pure any() predicate.
        let plan = FaultPlan {
            burst_windows: vec![
                FaultWindow::new(t(100), t(300)),
                FaultWindow::new(t(200), t(400)),
            ],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 1);
        assert!(inj.drop_command(t(250)), "inside both windows");
        assert_eq!(inj.cmd_drops, 1, "one capsule, one drop");
        assert!(inj.drop_command(t(350)), "inside the second only");
        assert!(!inj.drop_command(t(400)), "half-open upper edge");
        assert_eq!(inj.cmd_drops, 2);
    }

    #[test]
    fn node_death_at_tick_zero_is_dead_from_the_first_instant() {
        let plan = FaultPlan::default().with_node_death(0, SimTime::ZERO);
        let spec = plan.node_spec(0).expect("node 0 has a spec");
        assert!(spec.dead(SimTime::ZERO), "die_at == t covers tick 0");
        assert!(spec.dead(t(1_000_000)));
        assert!(!plan.is_noop());
        plan.validate();
    }

    #[test]
    fn node_spec_lookup_skips_noop_and_absent_entries() {
        // Builders pad intermediate nodes with fault-free specs; lookups on
        // the padding and past the end both report "no faults", so a plan
        // whose node faults target absent nodes injects nothing at runtime.
        let plan = FaultPlan::default().with_node_death(2, t(5));
        assert_eq!(plan.nodes.len(), 3);
        assert!(plan.node_spec(0).is_none(), "padding entry is noop");
        assert!(plan.node_spec(1).is_none());
        assert!(plan.node_spec(2).is_some());
        assert!(plan.node_spec(7).is_none(), "past the end");
        assert!(!plan.is_noop());
    }

    #[test]
    fn node_fault_predicates_follow_their_windows() {
        let plan = FaultPlan::default()
            .with_node_partition(0, FaultWindow::new(t(10), t(20)))
            .with_node_gc_storm(0, FaultWindow::new(t(30), t(40)))
            .with_node_degrade(
                0,
                FaultWindow::new(t(50), t(60)),
                SimDuration::from_micros(7),
            );
        let spec = plan.node_spec(0).unwrap();
        assert!(spec.partitioned(t(10)) && !spec.partitioned(t(20)));
        assert_eq!(spec.link_extra(t(55)), Some(SimDuration::from_micros(7)));
        assert_eq!(spec.link_extra(t(45)), None);
        assert!(!spec.dead(t(1_000_000)));
        plan.validate();
    }

    #[test]
    fn noop_node_spec_requires_real_degradation() {
        // Degrade windows with zero extra latency inject nothing.
        let spec = NodeFaultSpec {
            degrade_windows: vec![FaultWindow::new(t(0), t(10))],
            degrade_extra: SimDuration::ZERO,
            ..NodeFaultSpec::default()
        };
        assert!(spec.is_noop());
        assert_eq!(spec.link_extra(t(5)), None);
        let plan = FaultPlan {
            nodes: vec![spec],
            ..FaultPlan::default()
        };
        assert!(plan.is_noop(), "noop node specs keep the plan noop");
    }

    #[test]
    #[should_panic(expected = "degrade windows without extra latency")]
    fn validate_rejects_degrade_without_extra() {
        NodeFaultSpec {
            degrade_windows: vec![FaultWindow::new(t(0), t(10))],
            degrade_extra: SimDuration::ZERO,
            ..NodeFaultSpec::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn validate_rejects_bad_probability() {
        FaultPlan {
            cmd_loss_prob: 1.5,
            ..FaultPlan::default()
        }
        .validate();
    }
}
