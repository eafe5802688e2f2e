//! Serifos-style tenant placement: epoch-boundary migration planning from
//! observed interference.
//!
//! The planner is a pure function from (per-SSD interference telemetry,
//! per-tenant demand observed this epoch) to a bounded list of migrations.
//! It consumes three interference signals, mirroring the Serifos criteria:
//!
//! * **congestion residency** — whether the device's latency monitor sat
//!   above its threshold this epoch (`congested`),
//! * **GC overlap** — whether a collection window was active (`gc_busy`),
//! * **write-cost EWMA** — the rate engine's current write amplification
//!   estimate, which discounts a destination's usable headroom.
//!
//! Signals are folded into the shared [`HealthScore`] key (larger is
//! better): `(alive, !congested, !gc_free, headroom / write_cost)`. Each
//! planning step moves one movable tenant from the worst-scored SSD to the
//! best-scored one, with an anti-ping-pong guard on pure load imbalances:
//! a move is only taken if it cannot overshoot the balance point (moved
//! demand ≤ half the load gap). Tenants with outstanding debt never move —
//! debts are keyed by SSD and must settle where they were incurred.
//!
//! Everything here is deterministic: candidates are scanned in ascending
//! id order and every tie breaks toward the lowest id.

use gimbal_fabric::{HealthScore, SsdId, TenantId};

/// Per-SSD interference telemetry sampled by the embedding engine at the
/// epoch boundary.
#[derive(Clone, Copy, Debug)]
pub struct SsdTelemetry {
    /// Which device this row describes.
    pub ssd: SsdId,
    /// Device (and its node) is up. Dead SSDs are evacuation sources and
    /// never destinations.
    pub alive: bool,
    /// A GC window was active at sampling time.
    pub gc_busy: bool,
    /// The device's latency monitor was above threshold (congestion-state
    /// residency).
    pub congested: bool,
    /// Write-cost EWMA in milli-units (1000 = no amplification). Discounts
    /// destination headroom.
    pub write_cost_milli: u64,
}

/// One tenant's demand observed this epoch, as the broker ledger saw it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TenantDemand {
    /// Where the tenant currently runs.
    pub ssd: SsdId,
    /// The tenant.
    pub tenant: TenantId,
    /// Bytes charged this epoch.
    pub bytes: u64,
    /// False while the tenant has outstanding debt (either side) — such
    /// tenants never move.
    pub movable: bool,
}

/// A planned move, applied by the embedding engine at the epoch boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Migration {
    /// Who moves.
    pub tenant: TenantId,
    /// Source SSD.
    pub from: SsdId,
    /// Destination SSD.
    pub to: SsdId,
}

/// Score one SSD as a destination. Larger is better.
fn score(t: &SsdTelemetry, load: u64, cap_epoch: u64) -> HealthScore {
    let headroom = cap_epoch.saturating_sub(load);
    // Write amplification shrinks usable headroom: a device rewriting 2x
    // serves half the logical bytes per token.
    let wc = t.write_cost_milli.max(1000);
    let effective = (headroom as u128 * 1000 / wc as u128).min(u64::MAX as u128) as u64;
    HealthScore::new(t.alive, !t.congested, !t.gc_busy, effective)
}

/// Plan up to `max_moves` migrations. Pure and deterministic; see the
/// module docs for the policy.
pub(crate) fn plan(
    telem: &[SsdTelemetry],
    demand: &[TenantDemand],
    cap_epoch: u64,
    max_moves: u32,
) -> Vec<Migration> {
    // Sorted working copies so every scan is id-ordered.
    let mut rows: Vec<SsdTelemetry> = telem.to_vec();
    rows.sort_unstable_by_key(|r| r.ssd.0);
    let mut tenants: Vec<TenantDemand> = demand.to_vec();
    tenants.sort_unstable_by_key(|d| (d.ssd.0, d.tenant.0));

    let load_of = |tenants: &[TenantDemand], ssd: SsdId| -> u64 {
        tenants
            .iter()
            .filter(|d| d.ssd == ssd)
            .map(|d| d.bytes)
            .sum()
    };

    let mut plan = Vec::new();
    for _ in 0..max_moves {
        // Score every SSD against the *virtual* loads (planned moves
        // already applied).
        let scored: Vec<(SsdId, bool, HealthScore)> = rows
            .iter()
            .map(|r| {
                (
                    r.ssd,
                    r.alive,
                    score(r, load_of(&tenants, r.ssd), cap_epoch),
                )
            })
            .collect();

        // Destination: best-scored live SSD (ties -> lowest id).
        let Some(&(dst, _, dst_score)) = scored
            .iter()
            .filter(|(_, alive, _)| *alive)
            .max_by(|a, b| a.2.cmp(&b.2).then(b.0 .0.cmp(&a.0 .0)))
        else {
            break;
        };

        // Source: worst-scored SSD hosting at least one candidate tenant
        // (ties -> lowest id). A candidate must be movable and either have
        // demand to shed or sit on a dead device (evacuation).
        let has_candidate = |ssd: SsdId, alive: bool| {
            tenants
                .iter()
                .any(|d| d.ssd == ssd && d.movable && (d.bytes > 0 || !alive))
        };
        let Some(&(src, src_alive, src_score)) = scored
            .iter()
            .filter(|(s, alive, _)| *s != dst && has_candidate(*s, *alive))
            .min_by(|a, b| a.2.cmp(&b.2).then(a.0 .0.cmp(&b.0 .0)))
        else {
            break;
        };
        if src_score >= dst_score {
            break;
        }

        let src_load = load_of(&tenants, src);
        let dst_load = load_of(&tenants, dst);
        // Does the destination win on a structural signal (liveness,
        // congestion, GC), or only on headroom? Pure-headroom moves get the
        // anti-ping-pong guard; structural moves take the biggest tenant.
        let src_row = rows.iter().find(|r| r.ssd == src).expect("src exists");
        let dst_row = rows.iter().find(|r| r.ssd == dst).expect("dst exists");
        let structural = (src_row.alive, !src_row.congested, !src_row.gc_busy)
            != (dst_row.alive, !dst_row.congested, !dst_row.gc_busy);
        let budget = if structural {
            u64::MAX
        } else {
            src_load.saturating_sub(dst_load) / 2
        };

        // Largest-demand candidate that fits the budget (ties -> lowest
        // tenant id, via ascending scan keeping strict improvements).
        let mut pick: Option<usize> = None;
        for (i, d) in tenants.iter().enumerate() {
            if d.ssd != src || !d.movable || (d.bytes == 0 && src_alive) {
                continue;
            }
            if d.bytes > budget {
                continue;
            }
            if pick.is_none_or(|p| d.bytes > tenants[p].bytes) {
                pick = Some(i);
            }
        }
        let Some(i) = pick else {
            break;
        };
        plan.push(Migration {
            tenant: tenants[i].tenant,
            from: src,
            to: dst,
        });
        tenants[i].ssd = dst;
        // One move per tenant per plan.
        tenants[i].movable = false;
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: u64 = 1_000_000;

    fn healthy(ssd: u32) -> SsdTelemetry {
        SsdTelemetry {
            ssd: SsdId(ssd),
            alive: true,
            gc_busy: false,
            congested: false,
            write_cost_milli: 1000,
        }
    }

    fn d(ssd: u32, tenant: u32, bytes: u64) -> TenantDemand {
        TenantDemand {
            ssd: SsdId(ssd),
            tenant: TenantId(tenant),
            bytes,
            movable: true,
        }
    }

    #[test]
    fn drains_gc_busy_ssd_to_idle_one() {
        let mut telem = vec![healthy(0), healthy(1)];
        telem[0].gc_busy = true;
        let demand = vec![d(0, 0, 500_000), d(0, 1, 100_000)];
        let plan = plan(&telem, &demand, CAP, 1);
        // Structural win: the biggest tenant moves.
        assert_eq!(
            plan,
            vec![Migration {
                tenant: TenantId(0),
                from: SsdId(0),
                to: SsdId(1),
            }]
        );
    }

    #[test]
    fn balanced_loads_produce_no_moves() {
        let telem = vec![healthy(0), healthy(1)];
        let demand = vec![d(0, 0, 300_000), d(1, 1, 300_000)];
        assert!(plan(&telem, &demand, CAP, 4).is_empty());
    }

    #[test]
    fn headroom_move_respects_anti_ping_pong_guard() {
        let telem = vec![healthy(0), healthy(1)];
        // Gap is 400k; only tenants with <= 200k demand may move.
        let demand = vec![d(0, 0, 350_000), d(0, 1, 150_000), d(1, 2, 100_000)];
        let plan = plan(&telem, &demand, CAP, 1);
        assert_eq!(
            plan,
            vec![Migration {
                tenant: TenantId(1),
                from: SsdId(0),
                to: SsdId(1),
            }]
        );
    }

    #[test]
    fn indebted_tenants_never_move() {
        let mut telem = vec![healthy(0), healthy(1)];
        telem[0].congested = true;
        let mut demand = vec![d(0, 0, 500_000)];
        demand[0].movable = false;
        assert!(plan(&telem, &demand, CAP, 2).is_empty());
    }

    #[test]
    fn dead_ssd_is_evacuated_even_with_zero_demand() {
        let mut telem = vec![healthy(0), healthy(1)];
        telem[0].alive = false;
        let demand = vec![d(0, 7, 0)];
        let plan = plan(&telem, &demand, CAP, 1);
        assert_eq!(
            plan,
            vec![Migration {
                tenant: TenantId(7),
                from: SsdId(0),
                to: SsdId(1),
            }]
        );
    }

    #[test]
    fn move_count_is_bounded() {
        let mut telem = vec![healthy(0), healthy(1)];
        telem[0].gc_busy = true;
        let demand = vec![d(0, 0, 100_000), d(0, 1, 100_000), d(0, 2, 100_000)];
        assert_eq!(plan(&telem, &demand, CAP, 2).len(), 2);
    }

    #[test]
    fn write_cost_discounts_destination_headroom() {
        let mut telem = vec![healthy(0), healthy(1), healthy(2)];
        // SSD 0 is congested (structural source). SSD 1 has more raw
        // headroom but 3x write amplification; SSD 2 is the better
        // destination.
        telem[0].congested = true;
        telem[1].write_cost_milli = 3000;
        let demand = vec![d(0, 0, 600_000), d(1, 1, 0), d(2, 2, 100_000)];
        let plan = plan(&telem, &demand, CAP, 1);
        assert_eq!(
            plan,
            vec![Migration {
                tenant: TenantId(0),
                from: SsdId(0),
                to: SsdId(2),
            }]
        );
    }
}
