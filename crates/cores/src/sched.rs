//! The node-level reactor-core scheduler.
//!
//! [`CoreScheduler`] owns every [`Core`] of a node and decides, per poll
//! quantum, which core executes which pipeline's work. See the crate docs
//! for the determinism argument (quantum granularity, fixed steal ring,
//! epoch rebalance).

#![expect(
    clippy::disallowed_types,
    reason = "D8 owner: the scheduler lends its cores to the pipelines it places on them"
)]

use gimbal_fabric::SsdId;
use gimbal_nic::Core;
use gimbal_sim::{Digest, SimDuration, SimTime};
use gimbal_telemetry::{EventKind, TraceHandle};
use std::cell::RefCell;
use std::rc::Rc;

/// Inter-pipeline work stealing knobs. Present at all means stealing is on;
/// the engines carry `Option<StealConfig>` and an absent config keeps the
/// scheduler fully inert (home binding only, nothing journaled or traced).
#[derive(Clone, Debug)]
pub struct StealConfig {
    /// Period of the home-assignment rebalance pass.
    /// [`SimDuration::ZERO`] disables rebalancing; quanta still steal.
    pub rebalance_epoch: SimDuration,
    /// Test-only injected nondeterminism: reverse the steal ring so the
    /// thief pick diverges. It is a plain field, not `cfg(test)`, because
    /// the proof that the divergence sanitizer localizes a steal-order bug
    /// to component `cores` lives in another crate's tests
    /// (`gimbal-testbed`'s `sanitizer_localizes_injected_steal_order_flip`);
    /// no CLI flag sets it.
    #[doc(hidden)]
    pub perturb_steal_order: bool,
}

impl Default for StealConfig {
    fn default() -> Self {
        StealConfig {
            rebalance_epoch: SimDuration::from_millis(20),
            perturb_steal_order: false,
        }
    }
}

/// An open poll quantum: which core runs it and that core's busy
/// accumulator at entry, so [`CoreScheduler::end`] can attribute the
/// cycles the quantum consumed.
#[derive(Clone, Copy, Debug)]
pub struct Quantum {
    core: usize,
    start_busy: SimDuration,
}

impl Quantum {
    /// The core executing this quantum.
    pub fn core(&self) -> usize {
        self.core
    }
}

/// Whole-run scheduler counters, reported (and folded into stats digests)
/// only when stealing is configured so steal-off digests never change.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CoresStats {
    /// Reactor cores owned by the scheduler.
    pub cores: u32,
    /// Quanta executed away from their pipeline's home core.
    pub steals: u64,
    /// Rebalance passes that ran (idle epochs with no load are skipped).
    pub rebalances: u64,
    /// Home assignments changed across all rebalance passes.
    pub moved_homes: u64,
    /// Busy time consumed by stolen quanta, in nanoseconds.
    pub stolen_busy_ns: u64,
    /// Per-core total busy time, in nanoseconds.
    pub per_core_busy_ns: Vec<u64>,
    /// Per-pipeline busy time (wherever it executed), in nanoseconds.
    pub per_ssd_busy_ns: Vec<u64>,
}

impl CoresStats {
    /// Fold every counter into a stats digest. Callers gate this on the
    /// steal config being present, mirroring the broker/cache folds.
    pub fn fold_into(&self, d: &mut Digest) {
        d.update_u64(u64::from(self.cores))
            .update_u64(self.steals)
            .update_u64(self.rebalances)
            .update_u64(self.moved_homes)
            .update_u64(self.stolen_busy_ns);
        for &ns in &self.per_core_busy_ns {
            d.update_u64(ns);
        }
        for &ns in &self.per_ssd_busy_ns {
            d.update_u64(ns);
        }
    }
}

/// The scheduler. One per node; owns the node's cores and the home map.
///
/// The engines route every CPU-charging step (command arrival, poll,
/// DRAM-emit) through a `begin`/`end` bracket, so the core a quantum runs
/// on is always the scheduler's current decision.
pub struct CoreScheduler {
    cores: Vec<Rc<RefCell<Core>>>,
    /// Home core per pipeline; initially `ssd % cores`, the binding the
    /// engines used before this crate existed.
    home: Vec<usize>,
    steal: Option<StealConfig>,
    trace: TraceHandle,
    /// Last quantum decision per pipeline: (tick ns, core). Re-entering
    /// `begin` at the same tick reuses the decision so a quantum never
    /// splits across cores (and never journals twice).
    assigned: Vec<(u64, usize)>,
    /// Busy time per pipeline since the last rebalance pass.
    rebal_busy: Vec<SimDuration>,
    /// Whole-run busy time per pipeline.
    ssd_busy: Vec<SimDuration>,
    stolen_busy: SimDuration,
    steals: u64,
    rebalances: u64,
    moved_homes: u64,
    /// Decisions queued for the engine to stamp into the divergence
    /// journal under component `cores` (the scheduler cannot see the
    /// engine's event tick ordering; same pattern as the broker ledger).
    journal_pending: Vec<(&'static str, u64)>,
}

impl CoreScheduler {
    /// A scheduler over `cores` reactor cores and `ssds` pipelines.
    pub fn new(cores: usize, ssds: usize, steal: Option<StealConfig>, trace: TraceHandle) -> Self {
        assert!(cores >= 1, "at least one core");
        assert!(ssds >= 1, "at least one pipeline");
        CoreScheduler {
            cores: (0..cores)
                .map(|_| Rc::new(RefCell::new(Core::new())))
                .collect(),
            home: (0..ssds).map(|s| s % cores).collect(),
            steal,
            trace,
            assigned: (0..ssds).map(|s| (u64::MAX, s % cores)).collect(),
            rebal_busy: vec![SimDuration::ZERO; ssds],
            ssd_busy: vec![SimDuration::ZERO; ssds],
            stolen_busy: SimDuration::ZERO,
            steals: 0,
            rebalances: 0,
            moved_homes: 0,
            journal_pending: Vec::new(),
        }
    }

    /// The current home core of a pipeline.
    pub fn home(&self, ssd: usize) -> usize {
        self.home[ssd]
    }

    /// A shared handle to core `idx`, for pipeline construction and
    /// per-quantum repointing.
    pub fn core_rc(&self, idx: usize) -> Rc<RefCell<Core>> {
        Rc::clone(&self.cores[idx])
    }

    /// Whether stealing is configured.
    pub fn stealing(&self) -> bool {
        self.steal.is_some()
    }

    /// The rebalance period, when stealing is on and rebalance enabled.
    pub fn rebalance_epoch(&self) -> Option<SimDuration> {
        self.steal
            .as_ref()
            .map(|s| s.rebalance_epoch)
            .filter(|&e| e > SimDuration::ZERO)
    }

    /// Open a poll quantum for `ssd` at `now`: decide the executing core
    /// (home, or an idle thief from the steal ring) and snapshot its busy
    /// accumulator. Repeated calls at the same tick reuse the decision.
    pub fn begin(&mut self, ssd: usize, now: SimTime) -> Quantum {
        let (seen_tick, seen_core) = self.assigned[ssd];
        let core = if self.steal.is_none() {
            self.home[ssd]
        } else if seen_tick == now.as_nanos() {
            seen_core
        } else {
            let c = self.pick(ssd, now);
            self.assigned[ssd] = (now.as_nanos(), c);
            c
        };
        Quantum {
            core,
            start_busy: self.cores[core].borrow().busy_time(),
        }
    }

    /// The steal decision for one quantum. Only called with stealing on.
    fn pick(&mut self, ssd: usize, now: SimTime) -> usize {
        let home = self.home[ssd];
        if self.cores.len() < 2 || self.cores[home].borrow().busy_until() <= now {
            return home;
        }
        let n = self.cores.len();
        let reversed = self.steal.as_ref().is_some_and(|s| s.perturb_steal_order);
        for k in 1..n {
            let c = steal_candidate(n, home, k, reversed);
            if self.cores[c].borrow().busy_until() <= now {
                self.steals += 1;
                self.journal_pending.push(("steal", c as u64));
                self.trace.record(
                    now,
                    SsdId(ssd as u32),
                    None,
                    EventKind::QuantumStolen {
                        from_core: home as u32,
                        to_core: c as u32,
                    },
                );
                return c;
            }
        }
        home
    }

    /// Close a quantum: attribute the busy time it consumed to its
    /// pipeline (and to the stolen tally when it ran away from home).
    pub fn end(&mut self, ssd: usize, q: Quantum) {
        let used = self.cores[q.core].borrow().busy_time() - q.start_busy;
        if used == SimDuration::ZERO {
            return;
        }
        self.ssd_busy[ssd] += used;
        self.rebal_busy[ssd] += used;
        if q.core != self.home[ssd] {
            self.stolen_busy += used;
        }
    }

    /// Rebalance home assignments from the cycles each pipeline consumed
    /// since the last pass: greedy longest-processing-time — pipelines in
    /// descending busy order (ties by lower id) each go to the least
    /// loaded core (ties by lower id). Idle epochs (no load anywhere) are
    /// skipped so home diversity survives quiet phases.
    pub fn rebalance(&mut self, now: SimTime) {
        if self.steal.is_none() || self.cores.len() < 2 {
            return;
        }
        if self.rebal_busy.iter().all(|&b| b == SimDuration::ZERO) {
            return;
        }
        let mut order: Vec<usize> = (0..self.home.len()).collect();
        order.sort_by(|&a, &b| self.rebal_busy[b].cmp(&self.rebal_busy[a]).then(a.cmp(&b)));
        let mut load = vec![SimDuration::ZERO; self.cores.len()];
        let mut new_home = self.home.clone();
        for ssd in order {
            let mut best = 0;
            for c in 1..load.len() {
                if load[c] < load[best] {
                    best = c;
                }
            }
            new_home[ssd] = best;
            load[best] += self.rebal_busy[ssd];
        }
        self.rebalances += 1;
        for (ssd, &new) in new_home.iter().enumerate() {
            if new != self.home[ssd] {
                self.moved_homes += 1;
                self.journal_pending.push(("rebalance", ssd as u64));
                self.trace.record(
                    now,
                    SsdId(ssd as u32),
                    None,
                    EventKind::HomeRebalanced {
                        from_core: self.home[ssd] as u32,
                        to_core: new as u32,
                    },
                );
            }
        }
        self.home = new_home;
        for b in &mut self.rebal_busy {
            *b = SimDuration::ZERO;
        }
    }

    /// Queued steal/rebalance decisions for the engine to stamp into the
    /// divergence journal under component `cores`. Empty (and free) when
    /// stealing is off.
    pub fn drain_journal(&mut self) -> Vec<(&'static str, u64)> {
        std::mem::take(&mut self.journal_pending)
    }

    /// [`Self::drain_journal`] without the allocation: visit the queued
    /// decisions in place (in decision order) and clear them, keeping the
    /// buffer for the next steal.
    pub fn drain_journal_with(&mut self, mut visit: impl FnMut(&'static str, u64)) {
        for (op, key) in self.journal_pending.drain(..) {
            visit(op, key);
        }
    }

    /// Whole-run counters. Callers expose these only when stealing is
    /// configured, so steal-off results stay bit-identical.
    pub fn stats(&self) -> CoresStats {
        CoresStats {
            cores: self.cores.len() as u32,
            steals: self.steals,
            rebalances: self.rebalances,
            moved_homes: self.moved_homes,
            stolen_busy_ns: self.stolen_busy.as_nanos(),
            per_core_busy_ns: self
                .cores
                .iter()
                .map(|c| c.borrow().busy_time().as_nanos())
                .collect(),
            per_ssd_busy_ns: self.ssd_busy.iter().map(|d| d.as_nanos()).collect(),
        }
    }
}

impl std::fmt::Debug for CoreScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreScheduler")
            .field("cores", &self.cores.len())
            .field("home", &self.home)
            .field("stealing", &self.steal.is_some())
            .field("steals", &self.steals)
            .finish_non_exhaustive()
    }
}

/// The `k`-th core (1-based) a busy `home` core's pipeline tries to
/// steal, among `n` cores. The fixed-order steal ring is ascending core
/// ids, the thief scan entering past the home id — the broker's
/// lender-ring discipline applied to cores — so it visits `home + 1`,
/// `home + 2`, … modulo `n`; `reversed` (the injected nondeterminism of
/// [`StealConfig::perturb_steal_order`]) walks it backwards. The first
/// idle core wins.
fn steal_candidate(n: usize, home: usize, k: usize, reversed: bool) -> usize {
    if reversed {
        (home + n - k) % n
    } else {
        (home + k) % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn sched(cores: usize, ssds: usize, steal: bool) -> CoreScheduler {
        let cfg = steal.then(StealConfig::default);
        CoreScheduler::new(cores, ssds, cfg, TraceHandle::disabled())
    }

    /// Occupy a core for `us` microseconds starting at `at`.
    fn busy(s: &CoreScheduler, core: usize, at: SimTime, us: f64) {
        s.core_rc(core)
            .borrow_mut()
            .process(at, us * gimbal_nic::CYCLES_PER_US);
    }

    #[test]
    fn homes_are_round_robin_over_cores() {
        let s = sched(2, 5, false);
        assert_eq!(
            (0..5).map(|i| s.home(i)).collect::<Vec<_>>(),
            vec![0, 1, 0, 1, 0]
        );
    }

    #[test]
    fn steal_off_always_runs_at_home_and_journals_nothing() {
        let mut s = sched(2, 2, false);
        busy(&s, 0, t(0), 50.0); // home core busy: would steal if enabled
        let q = s.begin(0, t(1));
        assert_eq!(q.core(), 0, "stays home with stealing off");
        s.end(0, q);
        assert!(s.drain_journal().is_empty());
        assert_eq!(s.stats().steals, 0);
    }

    #[test]
    fn idle_home_is_never_stolen_from() {
        let mut s = sched(2, 2, true);
        let q = s.begin(0, t(1));
        assert_eq!(q.core(), 0, "idle home keeps its quantum");
        assert!(s.drain_journal().is_empty());
    }

    #[test]
    fn busy_home_steals_first_idle_core_in_ring_order() {
        let mut s = sched(4, 4, true);
        // Pipeline 1's home (core 1) is busy; cores 2 and 3 idle. The ring
        // from home 1 is [2, 3, 0]: core 2 must win.
        busy(&s, 1, t(0), 50.0);
        let q = s.begin(1, t(1));
        assert_eq!(q.core(), 2);
        assert_eq!(s.drain_journal(), vec![("steal", 2)]);
        assert_eq!(s.stats().steals, 1);
    }

    #[test]
    fn ring_wraps_past_high_ids() {
        let mut s = sched(3, 3, true);
        // Home 2 busy, core 0 idle, core 1 busy: ring from 2 is [0, 1].
        busy(&s, 2, t(0), 50.0);
        busy(&s, 1, t(0), 50.0);
        let q = s.begin(2, t(1));
        assert_eq!(q.core(), 0);
    }

    #[test]
    fn all_busy_falls_back_to_home() {
        let mut s = sched(2, 2, true);
        busy(&s, 0, t(0), 50.0);
        busy(&s, 1, t(0), 50.0);
        let q = s.begin(0, t(1));
        assert_eq!(q.core(), 0, "no idle thief: stay home");
        assert!(s.drain_journal().is_empty());
    }

    #[test]
    fn same_tick_begins_reuse_the_decision() {
        let mut s = sched(2, 2, true);
        busy(&s, 0, t(0), 50.0);
        let q1 = s.begin(0, t(1));
        assert_eq!(q1.core(), 1);
        // The steal made core 1 the quantum's core; a second begin at the
        // same tick (command arrival + pump) must not re-decide even
        // though core 1 is now busy with the quantum's own work.
        busy(&s, 1, t(1), 10.0);
        let q2 = s.begin(0, t(1));
        assert_eq!(q2.core(), 1);
        assert_eq!(s.drain_journal().len(), 1, "one steal record, not two");
    }

    #[test]
    fn perturbed_ring_picks_a_different_thief() {
        let run = |perturb: bool| {
            let cfg = StealConfig {
                perturb_steal_order: perturb,
                ..StealConfig::default()
            };
            let mut s = CoreScheduler::new(3, 3, Some(cfg), TraceHandle::disabled());
            busy(&s, 0, t(0), 50.0); // home busy, cores 1 and 2 idle
            let q = s.begin(0, t(1));
            q.core()
        };
        assert_eq!(run(false), 1, "ring order picks core 1");
        assert_eq!(run(true), 2, "reversed ring picks core 2");
    }

    #[test]
    fn end_attributes_busy_time_to_the_pipeline() {
        let mut s = sched(2, 2, true);
        let q = s.begin(0, t(0));
        busy(&s, q.core(), t(0), 10.0);
        s.end(0, q);
        let st = s.stats();
        assert_eq!(st.per_ssd_busy_ns[0], 10_000);
        assert_eq!(st.per_ssd_busy_ns[1], 0);
        assert_eq!(st.stolen_busy_ns, 0, "home quantum is not stolen time");
    }

    #[test]
    fn stolen_quantum_time_is_tallied() {
        let mut s = sched(2, 2, true);
        busy(&s, 0, t(0), 50.0);
        let q = s.begin(0, t(1));
        assert_eq!(q.core(), 1);
        busy(&s, 1, t(1), 7.0);
        s.end(0, q);
        assert_eq!(s.stats().stolen_busy_ns, 7_000);
    }

    #[test]
    fn rebalance_moves_the_hot_pipeline_apart_and_journals() {
        let mut s = sched(2, 4, true);
        // Pipelines 0 and 2 share home core 0 and both ran hot; 1 and 3
        // (home core 1) idled. LPT must split 0 and 2 across the cores.
        for (ssd, us) in [(0usize, 100.0), (2usize, 90.0)] {
            let q = s.begin(ssd, t(0));
            busy(&s, q.core(), t(0), us);
            s.end(ssd, q);
        }
        s.rebalance(t(500));
        assert_eq!(s.home(0), 0, "hottest pipeline to least-loaded core 0");
        assert_eq!(s.home(2), 1, "second-hottest to the other core");
        let j = s.drain_journal();
        assert!(
            j.contains(&("rebalance", 2)),
            "moved home must be journaled: {j:?}"
        );
        let st = s.stats();
        assert_eq!(st.rebalances, 1);
        assert!(st.moved_homes >= 1);
    }

    #[test]
    fn idle_epoch_skips_rebalance_and_keeps_home_diversity() {
        let mut s = sched(2, 4, true);
        s.rebalance(t(500));
        assert_eq!(s.stats().rebalances, 0);
        assert_eq!(
            (0..4).map(|i| s.home(i)).collect::<Vec<_>>(),
            vec![0, 1, 0, 1]
        );
    }

    #[test]
    fn double_runs_are_bit_identical() {
        let run = || {
            let mut s = sched(2, 4, true);
            for tick in 1..200u64 {
                let ssd = (tick % 4) as usize;
                let q = s.begin(ssd, t(tick));
                // Skew: pipelines 0 and 2 are the hot ones.
                if ssd.is_multiple_of(2) {
                    busy(&s, q.core(), t(tick), 3.0);
                }
                s.end(ssd, q);
                if tick % 50 == 0 {
                    s.rebalance(t(tick));
                }
            }
            let mut d = Digest::new();
            s.stats().fold_into(&mut d);
            (s.drain_journal(), d.value())
        };
        assert_eq!(run(), run());
    }

    /// The steal ring as it was built before the walk became arithmetic:
    /// collect every other core, rotate past the home id, and reverse
    /// under perturbation.
    fn reference_ring(n: usize, home: usize, reversed: bool) -> Vec<usize> {
        let mut ring: Vec<usize> = (0..n).filter(|&c| c != home).collect();
        let enter = ring.partition_point(|&c| c <= home);
        ring.rotate_left(enter);
        if reversed {
            ring.reverse();
        }
        ring
    }

    #[test]
    fn steal_walk_visits_the_reference_ring_in_order() {
        for n in 1..=8 {
            for home in 0..n {
                for reversed in [false, true] {
                    let walk: Vec<usize> = (1..n)
                        .map(|k| steal_candidate(n, home, k, reversed))
                        .collect();
                    assert_eq!(
                        walk,
                        reference_ring(n, home, reversed),
                        "n {n}, home {home}, reversed {reversed}"
                    );
                }
            }
        }
    }
}
