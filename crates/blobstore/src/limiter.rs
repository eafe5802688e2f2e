//! The credit-based IO rate limiter and per-backend load view (§4.3).
//!
//! With Gimbal at the target, every completion carries a credit grant; the
//! limiter tracks the latest grant and the outstanding count per backend.
//! "A read/write request is issued when there are enough credits;
//! otherwise, it is queued locally." The same credit numbers double as the
//! load signal for the read load balancer and the allocator's load-aware
//! backend choice ("we simply rely on the number of allocated credits to
//! decide the loading status on the target").

use crate::allocator::BackendId;
use crate::error::BlobError;
use gimbal_fabric::HealthScore;

#[derive(Clone, Copy, Debug)]
struct BackendState {
    credit: u32,
    outstanding: u32,
    dead: bool,
    /// Soft failure signal: the rack escalation ladder marked the backend's
    /// node suspect after repeated silent timeouts. Unlike `dead`, suspicion
    /// is reversible (a successful completion clears it) and only
    /// deprioritizes — a suspect backend still wins when it is the only
    /// live replica.
    suspect: bool,
}

/// Environment-sourced health of one backend, consulted by the
/// GC/partition-aware replica chooser. Both signals are *soft*: they reorder
/// the choice but never exclude a backend outright (only `dead` does that),
/// so a fully-degraded replica set still routes somewhere instead of
/// erroring while data remains reachable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaHealth {
    /// The backend's node is currently partitioned from the ToR (capsules
    /// to it are being dropped); sending there wastes a full timeout.
    pub partitioned: bool,
    /// The backend's SSD reports an active GC window (injected storm or
    /// organic die-level GC occupancy); reads will queue behind copybacks.
    pub gc_busy: bool,
}

/// Per-backend credit and outstanding tracking: the routing view the read
/// load balancer and the allocator consult. Submission gating belongs to
/// the initiator's per-lane gates, not to this view.
#[derive(Clone, Debug)]
pub struct RateLimiter {
    states: Vec<BackendState>,
}

impl RateLimiter {
    /// Create a limiter over `backends` backends with an initial grant. The
    /// last argument is ignored: it once switched gating on, and gating now
    /// lives in the initiator.
    pub fn new(backends: usize, initial_credit: u32, _gated: bool) -> Self {
        RateLimiter {
            states: vec![
                BackendState {
                    credit: initial_credit.max(1),
                    outstanding: 0,
                    dead: false,
                    suspect: false,
                };
                backends
            ],
        }
    }

    /// Record a submission to `b`.
    pub fn on_submit(&mut self, b: BackendId) {
        self.states[b.index()].outstanding += 1;
    }

    /// Record a completion from `b`, with its piggybacked credit if any.
    pub fn on_completion(&mut self, b: BackendId, credit: Option<u32>) {
        let s = &mut self.states[b.index()];
        debug_assert!(s.outstanding > 0);
        s.outstanding = s.outstanding.saturating_sub(1);
        if let Some(c) = credit {
            s.credit = c.max(1);
        }
    }

    /// The latest credit grant for `b` (the load-balancing score; higher =
    /// more headroom).
    pub fn credit(&self, b: BackendId) -> u32 {
        self.states[b.index()].credit
    }

    /// Remaining submission headroom for `b` (credit − outstanding). A
    /// backend observed failing reports zero headroom, steering the load
    /// balancer and the allocator away from it.
    pub fn headroom(&self, b: BackendId) -> u32 {
        let s = &self.states[b.index()];
        if s.dead {
            0
        } else {
            s.credit.saturating_sub(s.outstanding)
        }
    }

    /// Mark a backend as failed (observed via `DeviceError` completions).
    /// Submissions to it remain allowed — they fail fast — but the replica
    /// chooser and allocation scores avoid it.
    pub fn mark_dead(&mut self, b: BackendId) {
        self.states[b.index()].dead = true;
    }

    /// Whether the backend has been marked failed.
    pub fn is_dead(&self, b: BackendId) -> bool {
        self.states[b.index()].dead
    }

    /// Mark a backend suspect (its node stopped answering; the escalation
    /// ladder is rerouting around it until it proves itself again).
    pub fn mark_suspect(&mut self, b: BackendId) {
        self.states[b.index()].suspect = true;
    }

    /// Clear suspicion (a completion arrived from the backend's node).
    pub fn clear_suspect(&mut self, b: BackendId) {
        self.states[b.index()].suspect = false;
    }

    /// Whether the backend is currently suspect.
    pub fn is_suspect(&self, b: BackendId) -> bool {
        self.states[b.index()].suspect
    }

    /// Outstanding IOs to `b`.
    pub fn outstanding(&self, b: BackendId) -> u32 {
        self.states[b.index()].outstanding
    }

    /// Pick the replica with the most headroom (the §4.3 read load
    /// balancer). Backends marked failed are excluded outright — a dead
    /// primary must not win a zero-headroom tie. Ties among live replicas
    /// go to the first. Equivalent to [`Self::choose_replica_aware`] with
    /// every backend reporting healthy.
    pub fn choose_replica(&self, replicas: &[BackendId]) -> Result<usize, BlobError> {
        self.choose_replica_aware(replicas, |_| ReplicaHealth::default())
    }

    /// The extended chooser: "alive, not partitioned, and not GC-busy"
    /// before headroom. The preference order is the shared lexicographic
    /// [`HealthScore`] — reachable, then not-suspect, then not-GC-busy (the
    /// RackBlox co-design: route reads away from devices mid-collection),
    /// then headroom — with remaining ties going to the first replica in
    /// order (the primary), so the choice is deterministic. Dead backends
    /// stay a hard exclusion; every soft signal only reorders live
    /// candidates, so a rack where *every* replica is GC-busy still serves
    /// reads.
    pub fn choose_replica_aware(
        &self,
        replicas: &[BackendId],
        health: impl Fn(BackendId) -> ReplicaHealth,
    ) -> Result<usize, BlobError> {
        if replicas.is_empty() {
            return Err(BlobError::NoReplicas);
        }
        let score = |b: BackendId| {
            let h = health(b);
            HealthScore::new(
                !h.partitioned,
                !self.is_suspect(b),
                !h.gc_busy,
                u64::from(self.headroom(b)),
            )
        };
        let mut best: Option<usize> = None;
        for (i, &b) in replicas.iter().enumerate() {
            if self.is_dead(b) {
                continue;
            }
            match best {
                Some(j) if score(replicas[j]) >= score(b) => {}
                _ => best = Some(i),
            }
        }
        best.ok_or(BlobError::AllReplicasDead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_by_credit() {
        let mut l = RateLimiter::new(2, 2, true);
        let b = BackendId(0);
        assert_eq!(l.headroom(b), 2);
        l.on_submit(b);
        l.on_submit(b);
        assert_eq!((l.outstanding(b), l.headroom(b)), (2, 0));
        l.on_completion(b, None);
        assert_eq!((l.outstanding(b), l.headroom(b)), (1, 1));
        assert_eq!(
            l.credit(b),
            2,
            "a completion without a grant keeps the credit"
        );
        assert_eq!(l.headroom(BackendId(1)), 2, "backends are independent");
    }

    #[test]
    fn credit_updates_from_completions() {
        let mut l = RateLimiter::new(1, 2, true);
        let b = BackendId(0);
        l.on_submit(b);
        l.on_completion(b, Some(16));
        assert_eq!(l.credit(b), 16);
        assert_eq!(l.headroom(b), 16);
    }

    #[test]
    fn disabled_limiter_lets_everything_through() {
        let mut l = RateLimiter::new(1, 1, false);
        let b = BackendId(0);
        for _ in 0..100 {
            l.on_submit(b);
        }
        assert_eq!(l.outstanding(b), 100);
        assert_eq!(l.headroom(b), 0, "headroom saturates at zero");
        for _ in 0..100 {
            l.on_completion(b, Some(0));
        }
        assert_eq!(l.outstanding(b), 0);
        assert_eq!(l.credit(b), 1, "a zero grant is clamped to one");
    }

    #[test]
    fn replica_choice_prefers_headroom() {
        let mut l = RateLimiter::new(2, 8, true);
        // Backend 0 is busy; backend 1 idle.
        for _ in 0..6 {
            l.on_submit(BackendId(0));
        }
        assert_eq!(l.choose_replica(&[BackendId(0), BackendId(1)]), Ok(1));
        // Equal headroom → primary (index 0).
        let l2 = RateLimiter::new(2, 8, true);
        assert_eq!(l2.choose_replica(&[BackendId(0), BackendId(1)]), Ok(0));
    }

    #[test]
    fn replica_choice_excludes_dead_backends() {
        let mut l = RateLimiter::new(2, 8, true);
        // Saturate backend 1 so both report zero headroom; a dead primary
        // must still lose the tie to the live shadow.
        for _ in 0..8 {
            l.on_submit(BackendId(1));
        }
        l.mark_dead(BackendId(0));
        assert_eq!(l.choose_replica(&[BackendId(0), BackendId(1)]), Ok(1));
        l.mark_dead(BackendId(1));
        assert_eq!(
            l.choose_replica(&[BackendId(0), BackendId(1)]),
            Err(BlobError::AllReplicasDead)
        );
    }

    #[test]
    fn empty_replica_set_is_an_error_not_a_panic() {
        let l = RateLimiter::new(1, 8, true);
        assert_eq!(l.choose_replica(&[]), Err(BlobError::NoReplicas));
    }

    #[test]
    fn zero_headroom_tie_deprioritizes_gc_busy_backends() {
        // Both replicas report zero headroom (saturated); the old chooser
        // would send the read to the GC-busy primary on the first-wins tie.
        let mut l = RateLimiter::new(2, 4, true);
        for _ in 0..4 {
            l.on_submit(BackendId(0));
            l.on_submit(BackendId(1));
        }
        assert_eq!(l.headroom(BackendId(0)), 0);
        assert_eq!(l.headroom(BackendId(1)), 0);
        let gc0 = |b: BackendId| ReplicaHealth {
            gc_busy: b == BackendId(0),
            ..ReplicaHealth::default()
        };
        assert_eq!(
            l.choose_replica_aware(&[BackendId(0), BackendId(1)], gc0),
            Ok(1),
            "GC-busy primary loses the zero-headroom tie"
        );
    }

    #[test]
    fn replica_choice_tie_table() {
        // The full lexicographic preference table over two replicas with
        // equal headroom: partition > suspicion > GC-business > primary-
        // first. Each row is (health0, health1, suspect0, suspect1, winner).
        let h = |partitioned, gc_busy| ReplicaHealth {
            partitioned,
            gc_busy,
        };
        let healthy = h(false, false);
        let table: &[(ReplicaHealth, ReplicaHealth, bool, bool, usize)] = &[
            // All clear → primary wins the tie.
            (healthy, healthy, false, false, 0),
            // One soft signal flips the choice...
            (h(true, false), healthy, false, false, 1),
            (healthy, h(true, false), false, false, 0),
            (h(false, true), healthy, false, false, 1),
            (healthy, h(false, true), false, false, 0),
            (healthy, healthy, true, false, 1),
            (healthy, healthy, false, true, 0),
            // ...symmetric signals restore the primary-first tie...
            (h(false, true), h(false, true), false, false, 0),
            (h(true, true), h(true, true), true, true, 0),
            // ...and partition outranks suspicion outranks GC-business:
            // a reachable GC-busy replica beats a partitioned clean one,
            (h(true, false), h(false, true), false, false, 1),
            // a non-suspect GC-busy replica beats a suspect clean one,
            (h(false, true), healthy, false, true, 0),
            (healthy, h(false, true), true, false, 1),
            // and a suspect reachable replica beats a partitioned one.
            (h(true, false), healthy, false, true, 1),
        ];
        for (i, &(h0, h1, s0, s1, want)) in table.iter().enumerate() {
            let mut l = RateLimiter::new(2, 4, true);
            if s0 {
                l.mark_suspect(BackendId(0));
            }
            if s1 {
                l.mark_suspect(BackendId(1));
            }
            let health = move |b: BackendId| if b == BackendId(0) { h0 } else { h1 };
            assert_eq!(
                l.choose_replica_aware(&[BackendId(0), BackendId(1)], health),
                Ok(want),
                "tie-table row {i}"
            );
        }
    }

    #[test]
    fn headroom_outranks_nothing_but_breaks_equal_health() {
        // GC-business outranks headroom: an idle GC-busy backend loses to a
        // busy-but-collecting-free one.
        let mut l = RateLimiter::new(2, 8, true);
        for _ in 0..6 {
            l.on_submit(BackendId(1));
        }
        let gc0 = |b: BackendId| ReplicaHealth {
            gc_busy: b == BackendId(0),
            ..ReplicaHealth::default()
        };
        assert_eq!(
            l.choose_replica_aware(&[BackendId(0), BackendId(1)], gc0),
            Ok(1),
            "headroom 8 + GC loses to headroom 2 clean"
        );
        // With equal health, headroom still decides.
        assert_eq!(
            l.choose_replica_aware(&[BackendId(0), BackendId(1)], |_| ReplicaHealth::default()),
            Ok(0)
        );
    }

    #[test]
    fn suspect_backend_still_wins_when_it_is_the_only_live_replica() {
        let mut l = RateLimiter::new(2, 8, true);
        l.mark_dead(BackendId(1));
        l.mark_suspect(BackendId(0));
        assert_eq!(
            l.choose_replica_aware(&[BackendId(0), BackendId(1)], |_| ReplicaHealth {
                partitioned: true,
                gc_busy: true,
            }),
            Ok(0),
            "soft signals never exclude the last live replica"
        );
        l.clear_suspect(BackendId(0));
        assert!(!l.is_suspect(BackendId(0)));
    }

    #[test]
    fn plain_chooser_is_the_aware_chooser_with_healthy_backends() {
        let mut l = RateLimiter::new(2, 8, true);
        for _ in 0..3 {
            l.on_submit(BackendId(0));
        }
        let replicas = [BackendId(0), BackendId(1)];
        assert_eq!(
            l.choose_replica(&replicas),
            l.choose_replica_aware(&replicas, |_| ReplicaHealth::default())
        );
    }
}
