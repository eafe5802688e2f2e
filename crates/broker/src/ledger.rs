//! The borrow ledger: adaptive inter-tenant token borrowing with
//! deterministic repayment.
//!
//! The ledger layers on the strict per-tenant entitlement that the rate
//! engine already enforces. Each (SSD, tenant) pair owns an *account* that
//! accrues tokens continuously at `capacity_bps / active_tenants` and is
//! capped at `burst_bytes` — accrual beyond the cap evaporates, exactly as it
//! does in a plain token bucket. The broker's one new rule: a tenant whose
//! account cannot cover an IO may **borrow** the shortfall from co-located
//! tenants running below their entitlement, subject to
//!
//! * a deterministic lender order (a ring over ascending tenant ids, each
//!   borrower entering the ring just past its own id so drain spreads evenly
//!   — never a hash order),
//! * an isolation floor (lending never drains a lender below
//!   `burst * FLOOR_NUM / FLOOR_DEN`, 1/8),
//! * a per-(borrower, lender) outstanding-debt cap.
//!
//! Debts settle at every epoch boundary with **absorption-bounded
//! repayment**: the borrower repays only what the lender can actually absorb
//! — `paid = principal.min(burst - lender_balance)` — plus a small round-up
//! interest on the paid portion, its balance going negative if needed (it
//! pays the hole back out of its own future refill). The remainder is
//! written off as forgiven: those are exactly the tokens that would have
//! evaporated at the lender's cap anyway, so collecting them would destroy
//! throughput without compensating anyone. A lender is never worse off at
//! steady state, and the interest leaves it strictly better; a borrower with
//! a negative balance may not borrow again until it climbs back out.
//!
//! Every grant, repayment, forgiveness and migration is journaled for the
//! divergence sanitizer (component `broker`) and traced under
//! [`Component::Broker`]. The ledger carries an always-on conservation
//! audit: `granted == repaid + forgiven + outstanding` is asserted at every
//! settlement, and the isolation floor is asserted never violated.
//!
//! [`Component::Broker`]: gimbal_telemetry::Component::Broker

#![expect(
    clippy::disallowed_types,
    reason = "D8 owner: the pipelines of a node charge one broker through a BrokerHandle"
)]

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use gimbal_fabric::{SsdId, TenantId};
use gimbal_sim::{DetMap, Digest, SimDuration, SimTime};
use gimbal_telemetry::{EventKind, TraceHandle};

use crate::config::{interest_on, BrokerConfig, BrokerMode, MAX_DEBT_BYTES, MAX_MOVES_PER_EPOCH};
use crate::placement::{self, Migration, SsdTelemetry, TenantDemand};

/// Outcome of charging an IO against the ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Charge {
    /// Tokens were available (own balance, possibly topped up by borrowing).
    Granted,
    /// Not enough tokens anywhere; retry at the given instant, when the
    /// account's own refill will cover the shortfall.
    Denied {
        /// Deterministic earliest instant the charge can succeed.
        retry_at: SimTime,
    },
}

/// A pending sanitizer-journal record: `(op, key)`. The embedding engine
/// drains these and stamps them with its own event tick, so journal ticks
/// stay monotone across components.
pub(crate) type JournalRecord = (&'static str, u64);

/// Counters the ledger exposes to results and digests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Total bytes ever borrowed (grants of other tenants' tokens).
    pub granted: u64,
    /// Principal bytes repaid at settlements.
    pub repaid: u64,
    /// Interest bytes paid on top of principal.
    pub interest_paid: u64,
    /// Debt written off because a borrower or lender departed (stop, device
    /// death, node death).
    pub forgiven: u64,
    /// Debt currently outstanding across all (borrower, lender) pairs.
    pub outstanding: u64,
    /// Charges denied (no tokens and no borrowable headroom).
    pub denials: u64,
    /// Individual borrow grants (one per (borrower, lender) take).
    pub borrow_events: u64,
    /// Total bytes charged through the ledger (all granted IO, flush
    /// included).
    pub charged_bytes: u64,
    /// Bytes of the above that were write-back flush traffic — proof the
    /// owning tenant pays for its own flushes.
    pub flush_charged_bytes: u64,
    /// Migrations applied by the placement layer.
    pub migrations: u64,
    /// Settlement epochs completed.
    pub epochs: u64,
    /// Times lending drained a lender below the isolation floor. Asserted
    /// zero by the always-on audit; kept as a counter so results can prove
    /// the floor held.
    pub floor_violations: u64,
}

impl BrokerStats {
    /// The conservation identity the audit enforces.
    pub fn conservation_holds(&self) -> bool {
        self.granted == self.repaid + self.forgiven + self.outstanding && self.floor_violations == 0
    }

    /// Fold every counter into a digest (order is field order).
    pub fn fold_into(&self, d: &mut Digest) {
        d.update_u64(self.granted);
        d.update_u64(self.repaid);
        d.update_u64(self.interest_paid);
        d.update_u64(self.forgiven);
        d.update_u64(self.outstanding);
        d.update_u64(self.denials);
        d.update_u64(self.borrow_events);
        d.update_u64(self.charged_bytes);
        d.update_u64(self.flush_charged_bytes);
        d.update_u64(self.migrations);
        d.update_u64(self.epochs);
        d.update_u64(self.floor_violations);
    }
}

/// One (SSD, tenant) token account.
#[derive(Clone, Copy, Debug)]
struct Account {
    /// Token balance in bytes. Negative only after a settlement the account
    /// is repaying out of future refill.
    balance: i64,
    /// Sub-byte accrual remainder, in `bytes_per_sec * ns` units (< 1e9).
    frac: u64,
    /// Bytes charged since the last epoch boundary — the demand signal the
    /// placement scorer consumes.
    demand_epoch: u64,
}

/// Per-SSD ledger state.
#[derive(Clone, Debug)]
struct SsdState {
    /// Instant up to which the SSD's accounts have accrued.
    refilled_to: SimTime,
    /// Tenant ids holding an account on this SSD, ascending: the lender
    /// ring, and (by its length) the entitlement divisor. Kept in step with
    /// `accounts` at every membership change, so neither is recomputed per
    /// charge.
    ring: Vec<u32>,
}

const NS_PER_SEC: u64 = 1_000_000_000;

/// `rate × dt_ns` bytes·ns split into whole bytes and a sub-byte remainder
/// (< 1e9). Computed once per refill; `u64` arithmetic whenever the product
/// fits, the `u128` form otherwise.
fn accrual(rate: u64, dt_ns: u64) -> (u128, u64) {
    match rate.checked_mul(dt_ns) {
        Some(p) => (u128::from(p / NS_PER_SEC), p % NS_PER_SEC),
        None => {
            let p = u128::from(rate) * u128::from(dt_ns);
            let ns = u128::from(NS_PER_SEC);
            (p / ns, (p % ns) as u64)
        }
    }
}

/// Add an [`accrual`] to an account's carried remainder `frac` (< 1e9):
/// the whole bytes gained and the new remainder. Equal to
/// `(frac + rate × dt_ns)` div/mod 1e9 without a per-account division.
fn accrue(frac: u64, (whole, rem): (u128, u64)) -> (u128, u64) {
    let f = frac + rem;
    if f >= NS_PER_SEC {
        (whole + 1, f - NS_PER_SEC)
    } else {
        (whole, f)
    }
}

/// The borrow ledger. See the module docs for the economics.
#[derive(Clone, Debug)]
pub struct Broker {
    cfg: BrokerConfig,
    /// Accounts keyed by (ssd, tenant). The map's insertion order is never
    /// load-bearing: lender scans walk the SSD's sorted ring.
    accounts: DetMap<(u32, u32), Account>,
    /// Outstanding debt keyed by (ssd, borrower, lender).
    debts: DetMap<(u32, u32, u32), u64>,
    /// Refill horizon and membership ring of every SSD seen so far.
    ssds: DetMap<u32, SsdState>,
    stats: BrokerStats,
    trace: TraceHandle,
    journal_pending: Vec<JournalRecord>,
}

impl Broker {
    /// Build a ledger. `cfg` must already be validated.
    pub fn new(cfg: BrokerConfig, trace: TraceHandle) -> Self {
        cfg.validate();
        Broker {
            cfg,
            accounts: DetMap::new(),
            debts: DetMap::new(),
            ssds: DetMap::new(),
            stats: BrokerStats::default(),
            trace,
            journal_pending: Vec::new(),
        }
    }

    /// Current counters, with `outstanding` freshly snapshotted.
    pub fn stats(&self) -> BrokerStats {
        let mut s = self.stats;
        s.outstanding = self.outstanding_total();
        s
    }

    fn outstanding_total(&self) -> u64 {
        self.debts.values().sum()
    }

    /// Bring every account on `ssd` up to `now` at the current entitlement
    /// rate. Must run *before* any membership change on the SSD so the old
    /// divisor covers the elapsed span exactly.
    fn refill_ssd(&mut self, ssd: u32, now: SimTime) {
        let st = self.ssds.get_or_insert_with(ssd, || SsdState {
            refilled_to: now,
            ring: Vec::new(),
        });
        let last = st.refilled_to;
        if now <= last {
            return;
        }
        st.refilled_to = now;
        let n = st.ring.len() as u64;
        if n == 0 {
            return;
        }
        let rate = self.cfg.capacity_bps / n;
        let gained = accrual(rate, now.since(last).as_nanos());
        let burst = self.cfg.burst_bytes as i64;
        for ((s, _), acc) in self.accounts.iter_mut() {
            if *s != ssd {
                continue;
            }
            let (add, frac) = accrue(acc.frac, gained);
            acc.frac = frac;
            let topped = (acc.balance as i128 + add as i128).min(burst as i128);
            // Safe narrowing: `topped` is >= the old i64 balance and <= burst.
            acc.balance = topped as i64;
        }
    }

    /// Insert `tenant` into `ssd`'s ring (no-op when present).
    fn ring_insert(&mut self, ssd: u32, tenant: u32) {
        let st = self.ssds.get_mut(&ssd).expect("SSD refilled before join");
        if let Err(pos) = st.ring.binary_search(&tenant) {
            st.ring.insert(pos, tenant);
        }
    }

    /// Remove `tenant` from `ssd`'s ring (no-op when absent).
    fn ring_remove(&mut self, ssd: u32, tenant: u32) {
        if let Some(st) = self.ssds.get_mut(&ssd) {
            if let Ok(pos) = st.ring.binary_search(&tenant) {
                st.ring.remove(pos);
            }
        }
    }

    /// Open `tenant`'s account on `ssd` (at a full burst) if it has none.
    /// The SSD must already be refilled to the current instant.
    fn ensure_account(&mut self, ssd: u32, tenant: u32) {
        if self.accounts.contains_key(&(ssd, tenant)) {
            return;
        }
        self.accounts.insert(
            (ssd, tenant),
            Account {
                balance: self.cfg.burst_bytes as i64,
                frac: 0,
                demand_epoch: 0,
            },
        );
        self.ring_insert(ssd, tenant);
    }

    /// The lenders `borrower` asks, in order: everyone else on its SSD's
    /// ascending tenant-id `ring`, entered just past the borrower. Every
    /// borrower starts at a different lender, so repeated borrowing drains
    /// lenders evenly instead of always bleeding the lowest ids first
    /// (which measurably skews per-tenant fairness on staggered bursty
    /// mixes). `reversed` is the sanitizer-suite perturbation hook.
    fn lender_order(ring: &[u32], borrower: u32, reversed: bool) -> impl Iterator<Item = u32> + '_ {
        let n = ring.len();
        // `borrower` sits at `enter - 1`, so offsets 0..n-1 from `enter`
        // visit everyone else exactly once.
        let enter = ring.partition_point(|&t| t <= borrower);
        (0..n.saturating_sub(1)).map(move |i| {
            let i = if reversed { n - 2 - i } else { i };
            ring[(enter + i) % n]
        })
    }

    /// Headroom `lender` can extend to `borrower` right now: balance above
    /// the isolation floor, capped by the per-pair debt room.
    fn lendable(&self, ssd: u32, borrower: u32, lender: u32) -> u64 {
        let floor = self.cfg.floor_bytes() as i64;
        let Some(acc) = self.accounts.get(&(ssd, lender)) else {
            return 0;
        };
        let headroom = acc.balance.saturating_sub(floor).max(0) as u64;
        if headroom == 0 {
            // A lender at its floor lends nothing whatever the pair owes —
            // the common case while an SSD is saturated.
            return 0;
        }
        let owed = self
            .debts
            .get(&(ssd, borrower, lender))
            .copied()
            .unwrap_or(0);
        headroom.min(MAX_DEBT_BYTES.saturating_sub(owed))
    }

    /// When the account's own refill will have produced `deficit` bytes.
    ///
    /// Always strictly in the future: a `retry_at == now` would make the
    /// pipeline's denial parking queue re-poll the same denial in the same
    /// tick forever. `for_bytes` rounds up to >= 1 ns, but the clamp keeps
    /// the no-spin property locally evident rather than an artifact of a
    /// helper's rounding mode.
    fn retry_at(&self, tenants: u64, deficit: u64, now: SimTime) -> SimTime {
        let rate = self.cfg.capacity_bps / tenants.max(1);
        let wait = if rate == 0 {
            self.cfg.epoch
        } else {
            SimDuration::for_bytes(deficit.max(1), rate)
        };
        now + wait.max(SimDuration::from_nanos(1))
    }

    /// Charge `bytes` of IO for `tenant` on `ssd`. `flush` marks write-back
    /// flush traffic so results can prove flushes are paid for by their
    /// owner.
    pub fn try_charge(
        &mut self,
        ssd: SsdId,
        tenant: TenantId,
        bytes: u64,
        flush: bool,
        now: SimTime,
    ) -> Charge {
        let (s, t) = (ssd.0, tenant.0);
        self.refill_ssd(s, now);
        self.ensure_account(s, t);
        let need = bytes as i64;
        let acc = self.accounts.get_mut(&(s, t)).expect("account exists");
        let balance = acc.balance;
        if balance >= need {
            acc.balance -= need;
            Self::note_grant(&mut self.stats, acc, bytes, flush);
            return Charge::Granted;
        }
        let ring = &self.ssds.get(&s).expect("SSD refilled").ring;
        let tenants = ring.len() as u64;
        // A tenant still repaying a settlement (negative balance) may not
        // borrow again: it must climb back to zero on its own refill first.
        // That bounds debt growth and is what makes repayment deterministic.
        if self.cfg.mode == BrokerMode::Strict || balance < 0 {
            self.stats.denials += 1;
            let deficit = (need - balance) as u64;
            return Charge::Denied {
                retry_at: self.retry_at(tenants, deficit, now),
            };
        }
        // Borrow path: own balance is in [0, need). Two passes over the
        // fixed lender order — the first only sums availability so a denial
        // mutates nothing.
        let deficit = (need - balance) as u64;
        let reversed = self.cfg.perturb_lender_order;
        let mut avail = 0u64;
        for l in Self::lender_order(ring, t, reversed) {
            avail = avail.saturating_add(self.lendable(s, t, l));
            if avail >= deficit {
                break;
            }
        }
        if avail < deficit {
            self.stats.denials += 1;
            return Charge::Denied {
                retry_at: self.retry_at(tenants, deficit, now),
            };
        }
        // The ring is lifted out for the taking pass (and put back below)
        // so the loop can mutate the ledger; nothing in between touches it.
        let ring = std::mem::take(&mut self.ssds.get_mut(&s).expect("SSD refilled").ring);
        let floor = self.cfg.floor_bytes() as i64;
        let mut remaining = deficit;
        for l in Self::lender_order(&ring, t, reversed) {
            if remaining == 0 {
                break;
            }
            let take = self.lendable(s, t, l).min(remaining);
            if take == 0 {
                continue;
            }
            let lacc = self.accounts.get_mut(&(s, l)).expect("lender exists");
            lacc.balance -= take as i64;
            if lacc.balance < floor {
                self.stats.floor_violations += 1;
            }
            *self.debts.get_or_insert_with((s, t, l), || 0) += take;
            self.stats.granted += take;
            self.stats.borrow_events += 1;
            self.trace.record(
                now,
                ssd,
                Some(tenant),
                EventKind::TokenBorrowed {
                    lender: l,
                    bytes: take,
                },
            );
            self.journal_pending.push(("borrow", u64::from(l)));
            remaining -= take;
        }
        self.ssds.get_mut(&s).expect("SSD refilled").ring = ring;
        // Own balance plus everything borrowed exactly covers the IO.
        let acc = self.accounts.get_mut(&(s, t)).expect("account exists");
        acc.balance = 0;
        Self::note_grant(&mut self.stats, acc, bytes, flush);
        Charge::Granted
    }

    fn note_grant(stats: &mut BrokerStats, acc: &mut Account, bytes: u64, flush: bool) {
        stats.charged_bytes += bytes;
        if flush {
            stats.flush_charged_bytes += bytes;
        }
        acc.demand_epoch = acc.demand_epoch.saturating_add(bytes);
    }

    /// Epoch-boundary settlement. `active` lists, per SSD, the tenants that
    /// are still live there (not stopped, device up, node up). Departed
    /// accounts are removed and every debt touching them forgiven; live
    /// tenants without an account get one, so an idle tenant can lend.
    pub fn settle_epoch(&mut self, now: SimTime, active: &[(SsdId, Vec<TenantId>)]) {
        // Refill every SSD we know about before membership changes.
        let mut ssds: Vec<u32> = self.ssds.keys().copied().collect();
        for (ssd, _) in active {
            ssds.push(ssd.0);
        }
        ssds.sort_unstable();
        ssds.dedup();
        for s in ssds {
            self.refill_ssd(s, now);
        }

        // Membership sync: who should exist afterwards.
        let mut live: Vec<(u32, u32)> = Vec::new();
        for (ssd, tenants) in active {
            for t in tenants {
                live.push((ssd.0, t.0));
            }
        }
        live.sort_unstable();
        let mut departed: Vec<(u32, u32)> = self
            .accounts
            .keys()
            .filter(|&k| live.binary_search(k).is_err())
            .copied()
            .collect();
        // Accounts open in arrival order, not id order; `is_gone` searches.
        departed.sort_unstable();

        // Forgive every debt whose borrower or lender departed.
        if !departed.is_empty() {
            let is_gone = |s: u32, t: u32| departed.binary_search(&(s, t)).is_ok();
            let mut forgiven: Vec<((u32, u32, u32), u64)> = Vec::new();
            self.debts.retain(|&(s, b, l), &mut amt| {
                if is_gone(s, b) || is_gone(s, l) {
                    forgiven.push(((s, b, l), amt));
                    false
                } else {
                    true
                }
            });
            for ((s, b, l), amt) in forgiven {
                self.stats.forgiven += amt;
                self.trace.record(
                    now,
                    SsdId(s),
                    Some(TenantId(b)),
                    EventKind::DebtForgiven {
                        lender: l,
                        bytes: amt,
                    },
                );
                self.journal_pending.push(("forgive", u64::from(l)));
            }
            for k in &departed {
                self.accounts.remove(k);
                self.ring_remove(k.0, k.1);
            }
        }
        for k in &live {
            self.ensure_account(k.0, k.1);
        }

        // Repay every surviving debt, but only as far as the lender can
        // absorb it: credit above the lender's burst cap would have
        // evaporated had the tokens sat idle, so that slice of the debt is
        // *forgiven* rather than collected. The borrower pays (with
        // round-up interest) exactly for the tokens the lender actually
        // missed — this is what turns lending into statistical multiplexing
        // instead of a zero-sum time shift. The lender is never worse off:
        // it is restored up to its cap before anything is written down, and
        // the interest lands on top of the restored principal.
        let mut keys: Vec<(u32, u32, u32)> = self.debts.keys().copied().collect();
        keys.sort_unstable();
        let burst = self.cfg.burst_bytes as i64;
        for k in keys {
            let (s, b, l) = k;
            let principal = self.debts.remove(&k).unwrap_or(0);
            if principal == 0 {
                continue;
            }
            let headroom = self
                .accounts
                .get(&(s, l))
                .map(|a| (burst - a.balance).max(0) as u64)
                .unwrap_or(0);
            let paid = principal.min(headroom);
            let written_off = principal - paid;
            let interest = interest_on(paid);
            let payment = (paid + interest) as i64;
            if let Some(acc) = self.accounts.get_mut(&(s, b)) {
                acc.balance -= payment;
            }
            if let Some(acc) = self.accounts.get_mut(&(s, l)) {
                acc.balance = (acc.balance + payment).min(burst);
            }
            self.stats.repaid += paid;
            self.stats.interest_paid += interest;
            if written_off > 0 {
                self.stats.forgiven += written_off;
                self.trace.record(
                    now,
                    SsdId(s),
                    Some(TenantId(b)),
                    EventKind::DebtForgiven {
                        lender: l,
                        bytes: written_off,
                    },
                );
                self.journal_pending.push(("forgive", u64::from(l)));
            }
            // Only record a repayment when tokens actually moved. When every
            // eligible lender sits at zero headroom (its own refill already
            // made it whole), the entire principal is forgiven above and a
            // zero-byte DebtRepaid would be a phantom: it churns the trace
            // and the sanitizer journal without any ledger state change.
            if paid > 0 {
                self.trace.record(
                    now,
                    SsdId(s),
                    Some(TenantId(b)),
                    EventKind::DebtRepaid {
                        lender: l,
                        principal: paid,
                        interest,
                    },
                );
                self.journal_pending.push(("repay", u64::from(l)));
            }
        }

        self.stats.epochs = self.stats.epochs.saturating_add(1);
        self.journal_pending.push(("epoch", self.stats.epochs));
        self.audit();
    }

    /// The always-on conservation audit. Panics (even in release builds) if
    /// the ledger ever leaks or mints tokens, or if lending pierced the
    /// isolation floor.
    pub fn audit(&self) {
        let outstanding = self.outstanding_total();
        assert!(
            self.stats.granted == self.stats.repaid + self.stats.forgiven + outstanding,
            "broker conservation violated: granted {} != repaid {} + forgiven {} + outstanding {}",
            self.stats.granted,
            self.stats.repaid,
            self.stats.forgiven,
            outstanding
        );
        assert!(
            self.stats.floor_violations == 0,
            "broker isolation floor violated {} times",
            self.stats.floor_violations
        );
    }

    /// Plan up to `MAX_MOVES_PER_EPOCH` migrations from the demand observed
    /// this epoch and the interference telemetry supplied by the engine.
    /// Pure: applies nothing. Tenants with outstanding debt never move.
    pub(crate) fn plan_migrations(&self, telem: &[SsdTelemetry]) -> Vec<Migration> {
        if !self.cfg.placement {
            return Vec::new();
        }
        let mut demand: Vec<TenantDemand> = Vec::new();
        let mut keys: Vec<(u32, u32)> = self.accounts.keys().copied().collect();
        keys.sort_unstable();
        for (s, t) in keys {
            let acc = self.accounts.get(&(s, t)).expect("account exists");
            let in_debt = self
                .debts
                .keys()
                .any(|&(ds, b, l)| ds == s && (b == t || l == t));
            demand.push(TenantDemand {
                ssd: SsdId(s),
                tenant: TenantId(t),
                bytes: acc.demand_epoch,
                movable: !in_debt,
            });
        }
        let cap_epoch = self.epoch_capacity_bytes();
        placement::plan(telem, &demand, cap_epoch, MAX_MOVES_PER_EPOCH)
    }

    /// Bytes one SSD's full capacity accrues over one epoch.
    fn epoch_capacity_bytes(&self) -> u64 {
        let num = self.cfg.capacity_bps as u128 * self.cfg.epoch.as_nanos() as u128;
        (num / 1_000_000_000).min(u64::MAX as u128) as u64
    }

    /// Apply one migration: the tenant's account (balance, remainder) moves
    /// with it to the destination SSD.
    pub(crate) fn apply_migration(&mut self, m: &Migration, now: SimTime) {
        let from = (m.from.0, m.tenant.0);
        let Some(acc) = self.accounts.remove(&from) else {
            return;
        };
        // Movable tenants are debt-free by construction; a debt here would
        // silently strand conservation bookkeeping.
        debug_assert!(
            !self
                .debts
                .keys()
                .any(|&(s, b, l)| s == m.from.0 && (b == m.tenant.0 || l == m.tenant.0)),
            "migrating tenant {} with outstanding debt",
            m.tenant.0
        );
        self.ring_remove(m.from.0, m.tenant.0);
        self.refill_ssd(m.to.0, now);
        self.accounts.insert((m.to.0, m.tenant.0), acc);
        self.ring_insert(m.to.0, m.tenant.0);
        self.stats.migrations += 1;
        self.trace.record(
            now,
            m.from,
            Some(m.tenant),
            EventKind::TenantMigrated {
                from_ssd: m.from.0,
                to_ssd: m.to.0,
            },
        );
        self.journal_pending
            .push(("migrate", u64::from(m.tenant.0)));
    }

    /// Reset the per-epoch demand counters. Call after placement has
    /// consumed them.
    pub fn end_epoch(&mut self) {
        for acc in self.accounts.values_mut() {
            acc.demand_epoch = 0;
        }
    }

    /// Drain pending sanitizer-journal records (in decision order).
    pub fn drain_journal(&mut self) -> Vec<JournalRecord> {
        std::mem::take(&mut self.journal_pending)
    }

    /// [`Self::drain_journal`] without the allocation: visit the pending
    /// records in place (in decision order) and clear them, keeping the
    /// buffer for the next decisions.
    pub(crate) fn drain_journal_with(&mut self, mut visit: impl FnMut(&'static str, u64)) {
        for (op, key) in self.journal_pending.drain(..) {
            visit(op, key);
        }
    }

    /// A tenant's current balance, for tests and results.
    pub fn balance(&self, ssd: SsdId, tenant: TenantId) -> Option<i64> {
        self.accounts.get(&(ssd.0, tenant.0)).map(|a| a.balance)
    }
}

/// Shared handle to one [`Broker`], cloned into every pipeline that charges
/// against it. Interior mutability is confined to this file (whitelisted in
/// the lint ruleset as the broker's state owner).
#[derive(Clone)]
pub struct BrokerHandle {
    inner: Rc<RefCell<Broker>>,
}

impl BrokerHandle {
    /// Build a ledger and wrap it for sharing.
    pub fn new(cfg: BrokerConfig, trace: TraceHandle) -> Self {
        BrokerHandle {
            inner: Rc::new(RefCell::new(Broker::new(cfg, trace))),
        }
    }

    /// Charge an IO. See [`Broker::try_charge`].
    pub fn try_charge(
        &self,
        ssd: SsdId,
        tenant: TenantId,
        bytes: u64,
        flush: bool,
        now: SimTime,
    ) -> Charge {
        self.inner
            .borrow_mut()
            .try_charge(ssd, tenant, bytes, flush, now)
    }

    /// Settle an epoch. See [`Broker::settle_epoch`].
    pub fn settle_epoch(&self, now: SimTime, active: &[(SsdId, Vec<TenantId>)]) {
        self.inner.borrow_mut().settle_epoch(now, active);
    }

    /// Plan migrations. See `Broker::plan_migrations`.
    pub fn plan_migrations(&self, telem: &[SsdTelemetry]) -> Vec<Migration> {
        self.inner.borrow().plan_migrations(telem)
    }

    /// Apply a migration. See `Broker::apply_migration`.
    pub fn apply_migration(&self, m: &Migration, now: SimTime) {
        self.inner.borrow_mut().apply_migration(m, now);
    }

    /// Reset per-epoch demand counters.
    pub fn end_epoch(&self) {
        self.inner.borrow_mut().end_epoch();
    }

    /// Drain pending sanitizer-journal records.
    pub fn drain_journal(&self) -> Vec<JournalRecord> {
        self.inner.borrow_mut().drain_journal()
    }

    /// Visit and clear pending sanitizer-journal records in place. See
    /// `Broker::drain_journal_with`; `visit` must not call back into
    /// this handle.
    pub fn drain_journal_with(&self, visit: impl FnMut(&'static str, u64)) {
        self.inner.borrow_mut().drain_journal_with(visit);
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> BrokerStats {
        self.inner.borrow().stats()
    }

    /// Run the conservation audit now.
    pub fn audit(&self) {
        self.inner.borrow().audit();
    }

    /// A tenant's current balance, for tests.
    pub fn balance(&self, ssd: SsdId, tenant: TenantId) -> Option<i64> {
        self.inner.borrow().balance(ssd, tenant)
    }
}

impl fmt::Debug for BrokerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BrokerHandle").finish_non_exhaustive()
    }
}

#[cfg(test)]
impl Broker {
    /// Outstanding debt from `borrower` to `lender` on `ssd`.
    pub(crate) fn debt(&self, ssd: SsdId, borrower: TenantId, lender: TenantId) -> u64 {
        self.debts
            .get(&(ssd.0, borrower.0, lender.0))
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BrokerConfig {
        // 1 MB/s capacity, 1 MiB burst, 10 ms epochs: round numbers for
        // hand-checked arithmetic.
        BrokerConfig {
            capacity_bps: 1_000_000,
            burst_bytes: 1024 * 1024,
            epoch: SimDuration::from_millis(10),
            ..BrokerConfig::default()
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    const A: TenantId = TenantId(0);
    const B: TenantId = TenantId(1);
    const C: TenantId = TenantId(2);
    const S: SsdId = SsdId(0);

    #[test]
    fn own_balance_spends_before_borrowing() {
        let mut br = Broker::new(cfg(), TraceHandle::disabled());
        assert_eq!(br.try_charge(S, A, 4096, false, t(0)), Charge::Granted);
        let burst = cfg().burst_bytes as i64;
        assert_eq!(br.balance(S, A), Some(burst - 4096));
        assert_eq!(br.stats().granted, 0, "no borrowing happened");
    }

    #[test]
    fn strict_mode_denies_with_refill_retry() {
        let mut c = cfg();
        c.mode = BrokerMode::Strict;
        let mut br = Broker::new(c, TraceHandle::disabled());
        // Drain A's burst entirely.
        let burst = cfg().burst_bytes;
        assert_eq!(br.try_charge(S, A, burst, false, t(0)), Charge::Granted);
        let denied = br.try_charge(S, A, 1_000, false, t(0));
        // Sole tenant: rate = 1 MB/s, so 1000 bytes take 1 ms exactly.
        match denied {
            Charge::Denied { retry_at } => {
                assert_eq!(retry_at, t(0) + SimDuration::from_millis(1));
            }
            Charge::Granted => panic!("empty bucket must deny in strict mode"),
        }
        assert_eq!(br.stats().denials, 1);
    }

    #[test]
    fn borrow_covers_deficit_from_lowest_tenant_first() {
        let mut br = Broker::new(cfg(), TraceHandle::disabled());
        let burst = cfg().burst_bytes;
        // Create three accounts; A drains itself.
        assert_eq!(br.try_charge(S, B, 0, false, t(0)), Charge::Granted);
        assert_eq!(br.try_charge(S, C, 0, false, t(0)), Charge::Granted);
        assert_eq!(br.try_charge(S, A, burst, false, t(0)), Charge::Granted);
        // A now borrows 100 KiB; lender order is B (tenant 1) before C.
        let want = 100 * 1024;
        assert_eq!(br.try_charge(S, A, want, false, t(0)), Charge::Granted);
        assert_eq!(br.debt(S, A, B), want);
        assert_eq!(br.debt(S, A, C), 0);
        assert_eq!(br.balance(S, B), Some((burst - want) as i64));
        let st = br.stats();
        assert_eq!(st.granted, want);
        assert_eq!(st.outstanding, want);
        assert_eq!(st.borrow_events, 1);
        br.audit();
    }

    #[test]
    fn lenders_never_drained_below_floor() {
        let mut br = Broker::new(cfg(), TraceHandle::disabled());
        let burst = cfg().burst_bytes;
        let floor = cfg().floor_bytes();
        assert_eq!(br.try_charge(S, B, 0, false, t(0)), Charge::Granted);
        assert_eq!(br.try_charge(S, A, burst, false, t(0)), Charge::Granted);
        // Adversarial borrower: keep asking for everything B has.
        let mut granted_total = 0u64;
        for _ in 0..64 {
            let ask = 64 * 1024;
            match br.try_charge(S, A, ask, false, t(0)) {
                Charge::Granted => granted_total += ask,
                Charge::Denied { .. } => break,
            }
        }
        assert!(granted_total > 0, "some borrowing must succeed");
        let b_bal = br.balance(S, B).unwrap();
        assert!(
            b_bal >= floor as i64,
            "lender drained to {b_bal}, below floor {floor}"
        );
        assert_eq!(br.stats().floor_violations, 0);
        br.audit();
    }

    #[test]
    fn per_pair_debt_cap_limits_borrowing() {
        // A 32 MiB burst puts the floor at 4 MiB, so a lender has 28 MiB of
        // headroom and the 8 MiB pair cap binds before the floor does.
        let mut c = cfg();
        c.burst_bytes = 32 * 1024 * 1024;
        let (burst, floor) = (c.burst_bytes, c.floor_bytes());
        assert!(burst - floor > MAX_DEBT_BYTES);
        let mut br = Broker::new(c, TraceHandle::disabled());
        assert_eq!(br.try_charge(S, B, 0, false, t(0)), Charge::Granted);
        assert_eq!(br.try_charge(S, A, burst, false, t(0)), Charge::Granted);
        assert_eq!(
            br.try_charge(S, A, MAX_DEBT_BYTES, false, t(0)),
            Charge::Granted
        );
        // Pair cap reached: next borrow must be denied even though B still
        // has balance above its floor.
        assert!(matches!(
            br.try_charge(S, A, 4096, false, t(0)),
            Charge::Denied { .. }
        ));
        assert!(br.balance(S, B).unwrap() > floor as i64);
    }

    #[test]
    fn settlement_repays_what_the_lender_can_absorb_and_conserves() {
        let mut br = Broker::new(cfg(), TraceHandle::disabled());
        let burst = cfg().burst_bytes;
        assert_eq!(br.try_charge(S, B, 0, false, t(0)), Charge::Granted);
        assert_eq!(br.try_charge(S, A, burst, false, t(0)), Charge::Granted);
        let p = 64 * 1024;
        assert_eq!(br.try_charge(S, A, p, false, t(0)), Charge::Granted);
        let active = vec![(S, vec![A, B])];
        br.settle_epoch(t(10), &active);
        // With 2 tenants at 0.5 MB/s each, 10 ms accrues 5000 bytes. B's
        // own refill already recouped 5000 of the lent principal (it can
        // only absorb up to its burst cap), so A owes p - 5000 and the
        // refilled slice is written off — tokens B never actually missed.
        let paid = p - 5000;
        let st = br.stats();
        assert_eq!(st.repaid, paid);
        assert_eq!(st.forgiven, 5000);
        assert_eq!(st.interest_paid, interest_on(paid));
        assert_eq!(st.outstanding, 0);
        assert!(st.conservation_holds());
        // Borrower paid out of future refill: A's own 5000-byte refill
        // covers part of the collected principal + interest.
        let a_bal = br.balance(S, A).unwrap();
        let owed = (paid + interest_on(paid)) as i64;
        assert_eq!(a_bal, 5000 - owed);
        // A negative borrower may not borrow again until whole.
        assert!(matches!(
            br.try_charge(S, A, 4096, false, t(10)),
            Charge::Denied { .. }
        ));
    }

    #[test]
    fn all_forgiven_settlement_conserves_without_phantom_repayments() {
        // Every eligible lender at zero headroom at settlement: B lends a
        // slice smaller than its own epoch refill, so by the epoch boundary
        // B is back at its burst cap and can absorb nothing. The entire
        // principal must be forgiven, the conservation audit must stay
        // green, and — the regression this pins — no zero-byte DebtRepaid
        // journal records may be emitted for tokens that never moved.
        let mut br = Broker::new(cfg(), TraceHandle::disabled());
        let burst = cfg().burst_bytes;
        assert_eq!(br.try_charge(S, B, 0, false, t(0)), Charge::Granted);
        assert_eq!(br.try_charge(S, A, burst, false, t(0)), Charge::Granted);
        // 2 tenants at 0.5 MB/s each accrue 5000 bytes over the 10 ms
        // epoch; borrow less than that so B's refill recoups it all.
        let p = 4096;
        assert_eq!(br.try_charge(S, A, p, false, t(0)), Charge::Granted);
        br.drain_journal(); // discard the borrow records
        br.settle_epoch(t(10), &[(S, vec![A, B])]);
        let st = br.stats();
        assert_eq!(st.repaid, 0);
        assert_eq!(st.forgiven, p);
        assert_eq!(st.interest_paid, 0, "no interest on a zero payment");
        assert_eq!(st.outstanding, 0);
        assert!(st.conservation_holds());
        br.audit();
        let journal = br.drain_journal();
        assert!(
            journal.iter().any(|&(op, _)| op == "forgive"),
            "forgiveness must be journaled: {journal:?}"
        );
        assert!(
            !journal.iter().any(|&(op, _)| op == "repay"),
            "phantom zero-byte repayment journaled: {journal:?}"
        );
        // Nothing was collected, so A keeps its own refill and is liquid
        // again immediately — the denial parking queue has nothing to spin
        // on after an all-forgiven epoch.
        assert_eq!(br.balance(S, A), Some(5000));
        assert_eq!(br.try_charge(S, A, 4096, false, t(10)), Charge::Granted);
    }

    #[test]
    fn denial_retry_is_strictly_future_even_at_extreme_refill_rates() {
        // At a per-tenant refill rate above 1 byte/ns a naive
        // bytes-to-duration conversion rounds the wait to zero, and a
        // retry_at == now would wake the pipeline's denial parking queue in
        // the same tick forever.
        let mut c = cfg();
        c.mode = BrokerMode::Strict;
        c.capacity_bps = u64::MAX / 2; // ~9e18 B/s for the sole tenant
        c.burst_bytes = 1024 * 1024;
        let mut br = Broker::new(c, TraceHandle::disabled());
        let burst = 1024 * 1024;
        assert_eq!(br.try_charge(S, A, burst, false, t(1)), Charge::Granted);
        match br.try_charge(S, A, burst, false, t(1)) {
            Charge::Denied { retry_at } => {
                assert!(retry_at > t(1), "retry_at must be strictly future");
            }
            Charge::Granted => panic!("drained bucket must deny"),
        }
    }

    #[test]
    fn lender_never_worse_off_than_idling_at_cap() {
        // B sits idle at its burst cap; its refill would evaporate. A
        // borrows from B and repays with interest at the epoch. B must end
        // the epoch no lower than it would have without lending (at cap,
        // minus nothing), i.e. back at cap.
        let mut br = Broker::new(cfg(), TraceHandle::disabled());
        let burst = cfg().burst_bytes;
        assert_eq!(br.try_charge(S, B, 0, false, t(0)), Charge::Granted);
        assert_eq!(br.try_charge(S, A, burst, false, t(0)), Charge::Granted);
        assert_eq!(
            br.try_charge(S, A, 256 * 1024, false, t(0)),
            Charge::Granted
        );
        br.settle_epoch(t(10), &[(S, vec![A, B])]);
        assert_eq!(br.balance(S, B), Some(burst as i64));
    }

    #[test]
    fn departure_forgives_debt_and_conserves() {
        let mut br = Broker::new(cfg(), TraceHandle::disabled());
        let burst = cfg().burst_bytes;
        assert_eq!(br.try_charge(S, B, 0, false, t(0)), Charge::Granted);
        assert_eq!(br.try_charge(S, A, burst, false, t(0)), Charge::Granted);
        let p = 64 * 1024;
        assert_eq!(br.try_charge(S, A, p, false, t(0)), Charge::Granted);
        // A dies before the epoch; its debt is forgiven, not repaid.
        br.settle_epoch(t(10), &[(S, vec![B])]);
        let st = br.stats();
        assert_eq!(st.forgiven, p);
        assert_eq!(st.repaid, 0);
        assert_eq!(st.outstanding, 0);
        assert!(st.conservation_holds());
        assert_eq!(br.balance(S, A), None, "departed account removed");
    }

    #[test]
    fn settlement_creates_accounts_for_idle_tenants() {
        let mut br = Broker::new(cfg(), TraceHandle::disabled());
        br.settle_epoch(t(10), &[(S, vec![A, B, C])]);
        assert!(br.balance(S, B).is_some());
        assert!(br.balance(S, C).is_some());
    }

    #[test]
    fn refill_is_exact_over_odd_spans() {
        // 1 MB/s over 1 ns is 0.001 bytes: the remainder must carry, not
        // truncate away. 1000 × 1 ns must accrue exactly 1 byte.
        let mut c = cfg();
        c.mode = BrokerMode::Strict;
        let mut br = Broker::new(c, TraceHandle::disabled());
        let burst = cfg().burst_bytes;
        assert_eq!(br.try_charge(S, A, burst, false, t(0)), Charge::Granted);
        for ns in 1..=1000u64 {
            br.refill_ssd(0, SimTime::from_nanos(ns));
        }
        assert_eq!(br.balance(S, A), Some(1));
    }

    #[test]
    fn flush_bytes_tracked_separately() {
        let mut br = Broker::new(cfg(), TraceHandle::disabled());
        assert_eq!(br.try_charge(S, A, 4096, true, t(0)), Charge::Granted);
        assert_eq!(br.try_charge(S, A, 8192, false, t(0)), Charge::Granted);
        let st = br.stats();
        assert_eq!(st.charged_bytes, 12288);
        assert_eq!(st.flush_charged_bytes, 4096);
    }

    #[test]
    fn perturbed_lender_order_changes_journal_not_conservation() {
        let run = |perturb: bool| {
            let mut c = cfg();
            c.perturb_lender_order = perturb;
            let mut br = Broker::new(c, TraceHandle::disabled());
            let burst = cfg().burst_bytes;
            let floor = cfg().floor_bytes();
            assert_eq!(br.try_charge(S, B, 0, false, t(0)), Charge::Granted);
            assert_eq!(br.try_charge(S, C, 0, false, t(0)), Charge::Granted);
            assert_eq!(br.try_charge(S, A, burst, false, t(0)), Charge::Granted);
            // Borrow more than one lender can cover alone so both appear.
            let big = burst - floor + 4096;
            assert_eq!(br.try_charge(S, A, big, false, t(0)), Charge::Granted);
            br.audit();
            br.drain_journal()
        };
        let straight = run(false);
        let flipped = run(true);
        assert_ne!(straight, flipped, "perturbation must reorder lenders");
        let mut s2 = straight.clone();
        let mut f2 = flipped.clone();
        s2.sort_unstable();
        f2.sort_unstable();
        assert_eq!(s2, f2, "same decisions, different order");
    }

    #[test]
    fn multi_departure_epoch_forgives_every_debt_of_departed_tenants() {
        // Accounts open in scrambled id order, so account-insertion order
        // is not id order; then three tenants depart in one epoch. Every
        // debt with a departed party must be forgiven in the departure pass
        // — none may be collected from a borrower that no longer exists.
        let mut br = Broker::new(cfg(), TraceHandle::disabled());
        let burst = cfg().burst_bytes;
        let headroom = burst - cfg().floor_bytes();
        for id in [5u32, 1, 9, 3, 7] {
            assert_eq!(
                br.try_charge(S, TenantId(id), 0, false, t(0)),
                Charge::Granted
            );
        }
        // Tenant 9 drains itself and borrows past lender 1 (survives) into
        // lender 3 (departs).
        let nine = TenantId(9);
        assert_eq!(br.try_charge(S, nine, burst, false, t(1)), Charge::Granted);
        assert_eq!(
            br.try_charge(S, nine, headroom + 8192, false, t(1)),
            Charge::Granted
        );
        // Tenant 7 drains itself and borrows from lender 3 (departs) and
        // lender 5 (survives) — 9 and 1 are at their floor.
        let seven = TenantId(7);
        assert_eq!(br.try_charge(S, seven, burst, false, t(1)), Charge::Granted);
        assert_eq!(
            br.try_charge(S, seven, headroom, false, t(1)),
            Charge::Granted
        );
        let debts = [(9u32, 1u32), (9, 3), (7, 3), (7, 5)];
        for (b, l) in debts {
            assert!(br.debt(S, TenantId(b), TenantId(l)) > 0, "{b} owes {l}");
        }
        let granted = br.stats().granted;
        br.drain_journal(); // discard the borrow records
        let stay = vec![(S, vec![TenantId(1), TenantId(5)])];
        br.settle_epoch(t(10), &stay);
        let st = br.stats();
        assert_eq!(st.forgiven, granted, "every debt forgiven in full");
        assert_eq!(st.repaid, 0, "collected from a departed borrower");
        assert_eq!(st.interest_paid, 0);
        assert_eq!(st.outstanding, 0);
        assert!(st.conservation_holds());
        br.audit();
        let journal = br.drain_journal();
        assert!(
            !journal.iter().any(|&(op, _)| op == "repay"),
            "repayment journaled: {journal:?}"
        );
        let mut forgiven: Vec<u64> = journal
            .iter()
            .filter(|&&(op, _)| op == "forgive")
            .map(|&(_, lender)| lender)
            .collect();
        forgiven.sort_unstable();
        let mut lenders: Vec<u64> = debts.iter().map(|&(_, l)| u64::from(l)).collect();
        lenders.sort_unstable();
        assert_eq!(forgiven, lenders, "one forgive record per debt");
        for id in [3u32, 7, 9] {
            assert_eq!(br.balance(S, TenantId(id)), None, "{id} departed");
        }
    }

    /// The lender scan as it was before the per-SSD ring was cached —
    /// collect the SSD's other accounts, sort, rotate past the borrower,
    /// reverse under the perturbation hook — kept as the reference.
    fn reference_lender_order(br: &Broker, ssd: u32, borrower: u32) -> Vec<u32> {
        let mut v: Vec<u32> = br
            .accounts
            .keys()
            .filter(|(s, t)| *s == ssd && *t != borrower)
            .map(|(_, t)| *t)
            .collect();
        v.sort_unstable();
        let enter = v.partition_point(|&t| t <= borrower);
        v.rotate_left(enter);
        if br.cfg.perturb_lender_order {
            v.reverse();
        }
        v
    }

    /// Every account's cached lender scan equals the reference, and every
    /// ring lists exactly its SSD's accounts.
    fn assert_rings_match_accounts(br: &Broker, when: &str) {
        for &(s, t) in br.accounts.keys() {
            let ring = &br.ssds.get(&s).expect("account on a known SSD").ring;
            let cached: Vec<u32> =
                Broker::lender_order(ring, t, br.cfg.perturb_lender_order).collect();
            assert_eq!(
                cached,
                reference_lender_order(br, s, t),
                "{when}: lender scan of tenant {t} on SSD {s}"
            );
        }
        let members: usize = br.ssds.values().map(|st| st.ring.len()).sum();
        assert_eq!(members, br.accounts.len(), "{when}: ring sizes");
    }

    #[test]
    fn cached_ring_equals_reference_lender_order_across_membership_changes() {
        for perturb in [false, true] {
            let mut c = cfg();
            c.perturb_lender_order = perturb;
            let mut br = Broker::new(c, TraceHandle::disabled());
            let burst = cfg().burst_bytes;
            let s1 = SsdId(1);
            // Accounts open in scrambled id order, on two SSDs.
            for id in [5u32, 1, 9, 3, 7] {
                br.try_charge(S, TenantId(id), 0, false, t(0));
                assert_rings_match_accounts(&br, "creation");
            }
            for id in [4u32, 2] {
                br.try_charge(s1, TenantId(id), 0, false, t(0));
            }
            assert_rings_match_accounts(&br, "second SSD");
            // Tenant 3 drains itself and borrows, then departs in debt
            // together with lender 7: forgiveness removes both accounts.
            assert_eq!(
                br.try_charge(S, TenantId(3), burst, false, t(1)),
                Charge::Granted
            );
            assert_eq!(
                br.try_charge(S, TenantId(3), 64 * 1024, false, t(1)),
                Charge::Granted
            );
            assert!(br.stats().outstanding > 0);
            let stay = |ids: &[u32]| ids.iter().map(|&i| TenantId(i)).collect::<Vec<_>>();
            br.settle_epoch(t(10), &[(S, stay(&[1, 5, 9, 6])), (s1, stay(&[2, 4]))]);
            assert_eq!(br.balance(S, TenantId(3)), None);
            assert_eq!(br.balance(S, TenantId(7)), None);
            assert!(br.balance(S, TenantId(6)).is_some(), "idle tenant joined");
            assert_rings_match_accounts(&br, "departure");
            // A debt-free tenant migrates between the SSDs, and back.
            for (from, to) in [(S, s1), (s1, S)] {
                br.apply_migration(
                    &Migration {
                        tenant: TenantId(5),
                        from,
                        to,
                    },
                    t(10),
                );
                assert!(br.balance(to, TenantId(5)).is_some());
                assert_eq!(br.balance(from, TenantId(5)), None);
                assert_rings_match_accounts(&br, "migration");
            }
            br.audit();
        }
    }

    #[test]
    fn u64_refill_fast_path_equals_u128_path_on_boundary_products() {
        // The per-account arithmetic `refill_ssd` used before the split.
        let reference = |frac: u64, rate: u64, dt: u64| {
            let num = frac as u128 + rate as u128 * dt as u128;
            (num / 1_000_000_000, (num % 1_000_000_000) as u64)
        };
        let fracs = [0, 1, 499_999_999, 999_999_998, 999_999_999];
        let mut cases: Vec<(u64, u64)> = vec![(0, 0), (1, 1), (u64::MAX, 1), (1, u64::MAX)];
        // Products straddling u64::MAX (the fast/fallback boundary) and
        // whole-second multiples (remainder 0 and 1e9 - 1).
        for dt in [
            1u64,
            3,
            1_000,
            999_999_999,
            1_000_000_000,
            17_000_000,
            1 << 32,
        ] {
            let rate = u64::MAX / dt;
            for r in [rate - 1, rate, rate.saturating_add(1)] {
                cases.push((r, dt));
                cases.push((dt, r));
            }
            cases.push((dt, 1_000_000_000));
            cases.push((dt, 999_999_999));
        }
        for &(rate, dt) in &cases {
            for &frac in &fracs {
                assert_eq!(
                    accrue(frac, accrual(rate, dt)),
                    reference(frac, rate, dt),
                    "frac {frac} rate {rate} dt {dt}"
                );
            }
        }
        // Both sides of the boundary were exercised.
        assert!(cases.iter().any(|&(r, d)| r.checked_mul(d).is_none()));
        assert!(cases.iter().any(|&(r, d)| r.checked_mul(d).is_some()));
    }
}
