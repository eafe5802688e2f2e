//! The shared backend-preference key.
//!
//! Two layers rank storage backends by health: the blobstore's replica
//! chooser (§4.3 read load balancing, extended with the RackBlox-style
//! GC-awareness) and the broker's Serifos-style placement scorer. Both used
//! to carry their own copy of the same lexicographic rule; this type is the
//! single definition.
//!
//! The preference order is lexicographic over the fields in declaration
//! order (derived `Ord`, with `false < true`):
//!
//! 1. reachable (not partitioned / node alive) beats unreachable,
//! 2. trusted (not suspect) beats suspect,
//! 3. GC-free beats mid-collection,
//! 4. more headroom beats less.
//!
//! Hard exclusions (dead backends) are the caller's job — a score only
//! *orders* live candidates, it never removes one, so a fully-degraded set
//! still routes somewhere.

/// Lexicographic backend preference key. Larger is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct HealthScore {
    /// Capsules to the backend currently arrive (not partitioned, node up).
    pub reachable: bool,
    /// The escalation ladder has not marked the backend suspect.
    pub trusted: bool,
    /// No active GC window on the backend's device.
    pub gc_free: bool,
    /// Remaining submission headroom (credits, tokens, or any monotone
    /// capacity proxy — callers agree on the unit per comparison site).
    pub headroom: u64,
}

impl HealthScore {
    /// Assemble a score from its signals.
    pub fn new(reachable: bool, trusted: bool, gc_free: bool, headroom: u64) -> Self {
        HealthScore {
            reachable,
            trusted,
            gc_free,
            headroom,
        }
    }
}

#[cfg(test)]
impl HealthScore {
    /// The best possible score at a given headroom (fully healthy).
    pub(crate) fn healthy(headroom: u64) -> Self {
        HealthScore::new(true, true, true, headroom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_lexicographic() {
        // Reachability outranks everything.
        assert!(HealthScore::new(true, false, false, 0) > HealthScore::new(false, true, true, 99));
        // Trust outranks GC and headroom.
        assert!(HealthScore::new(true, true, false, 0) > HealthScore::new(true, false, true, 99));
        // GC-freeness outranks headroom.
        assert!(HealthScore::new(true, true, true, 0) > HealthScore::new(true, true, false, 99));
        // Equal health: headroom decides.
        assert!(HealthScore::healthy(5) > HealthScore::healthy(4));
        assert_eq!(HealthScore::healthy(4), HealthScore::healthy(4));
    }
}
