//! The multi-tenancy scheme under test and its component factories.

use gimbal_baselines::{FlashFqPolicy, PardaClient, ReflexPolicy};
use gimbal_cache::{AdmissionPolicy, CacheConfig, WritePolicy};
use gimbal_core::{CreditClient, GimbalPolicy, Params};
use gimbal_fabric::SsdId;
use gimbal_nic::CpuCost;
use gimbal_switch::{ClientPolicy, FifoPolicy, SwitchPolicy, UnlimitedClient};

/// Build the NIC-DRAM cache tier configuration shared by the CLI and the
/// bench binaries. `mb == 0` disables the cache entirely (`None`), which is
/// bit-identical to a build without cache support; the cache tier composes
/// with every [`Scheme`] because it sits ahead of the policy in the pipeline.
pub fn cache_tier(mb: u64, policy: AdmissionPolicy) -> Option<CacheConfig> {
    cache_tier_wb(mb, policy, WritePolicy::Through)
}

/// [`cache_tier`] with an explicit write policy: `WritePolicy::Back` arms the
/// write-back tier (DRAM-cost write acks + the deterministic flusher), while
/// `WritePolicy::Through` is bit-identical to [`cache_tier`].
pub fn cache_tier_wb(mb: u64, policy: AdmissionPolicy, write: WritePolicy) -> Option<CacheConfig> {
    (mb > 0).then(|| CacheConfig {
        policy,
        write_policy: write,
        ..CacheConfig::for_mb(mb)
    })
}

/// A lane's submission gate: one of the schemes' client policies, held
/// inline so that gating a lane allocates nothing.
pub(crate) enum Gate {
    Open(UnlimitedClient),
    Credit(CreditClient),
    Parda(PardaClient),
}

impl Gate {
    /// The policy behind the gate.
    pub(crate) fn policy(&mut self) -> &mut dyn ClientPolicy {
        match self {
            Gate::Open(c) => c,
            Gate::Credit(c) => c,
            Gate::Parda(c) => c,
        }
    }
}

/// Which multi-tenancy mechanism the JBOF runs (§5.1's comparison set plus
/// the plain vanilla target used for the characterization experiments).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Plain SPDK NVMe-oF target: FIFO, no isolation (Figs 2–4, 19–23).
    Vanilla,
    /// ReFlex-style static token model + DRR at the target.
    Reflex,
    /// PARDA-style client-side latency-window control, FIFO target.
    Parda,
    /// FlashFQ-style SFQ(D) at the target.
    FlashFq,
    /// The Gimbal storage switch.
    Gimbal,
}

impl Scheme {
    /// The four schemes compared throughout §5.
    pub const COMPARED: [Scheme; 4] = [
        Scheme::Reflex,
        Scheme::FlashFq,
        Scheme::Parda,
        Scheme::Gimbal,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Vanilla => "Vanilla",
            Scheme::Reflex => "ReFlex",
            Scheme::Parda => "Parda",
            Scheme::FlashFq => "FlashFQ",
            Scheme::Gimbal => "Gimbal",
        }
    }

    /// Build the target-side policy for one SSD pipeline. No policy reads
    /// the SSD id: `_ssd` stays only because the `jbof_bench` crate passes
    /// one.
    pub fn make_policy(self, _ssd: SsdId, gimbal_params: Params) -> Box<dyn SwitchPolicy> {
        match self {
            Scheme::Vanilla | Scheme::Parda => Box::new(FifoPolicy::new()),
            Scheme::Reflex => Box::new(ReflexPolicy::default()),
            Scheme::FlashFq => Box::new(FlashFqPolicy::default()),
            Scheme::Gimbal => Box::new(GimbalPolicy::new(gimbal_params)),
        }
    }

    /// Build the client-side submission gate for one (client, lane):
    /// Parda's latency window, Gimbal's credit gate (Alg. 3) seeded with
    /// `params.initial_credit_ios` when `flow_control` is on, and no gate
    /// otherwise. Every engine's initiator gates through this.
    pub(crate) fn client_gate(self, params: Params, flow_control: bool) -> Gate {
        match self {
            Scheme::Parda => Gate::Parda(PardaClient::default()),
            Scheme::Gimbal if flow_control => {
                Gate::Credit(CreditClient::new(params.initial_credit_ios))
            }
            _ => Gate::Open(UnlimitedClient),
        }
    }

    /// The flow-controlled gate under default parameters, boxed.
    pub fn make_client(self) -> Box<dyn ClientPolicy> {
        match self.client_gate(Params::default(), true) {
            Gate::Open(c) => Box::new(c),
            Gate::Credit(c) => Box::new(c),
            Gate::Parda(c) => Box::new(c),
        }
    }

    /// The per-IO CPU cost of the target software for this scheme.
    pub fn cpu_cost(self, xeon: bool) -> CpuCost {
        match (self, xeon) {
            (Scheme::Gimbal, false) => CpuCost::arm_gimbal(),
            (Scheme::Gimbal, true) => CpuCost::xeon_gimbal(),
            (_, false) => CpuCost::arm_vanilla(),
            (_, true) => CpuCost::xeon_vanilla(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factories_produce_the_right_components() {
        for s in [
            Scheme::Vanilla,
            Scheme::Reflex,
            Scheme::Parda,
            Scheme::FlashFq,
            Scheme::Gimbal,
        ] {
            let p = s.make_policy(SsdId(0), Params::default());
            let c = s.make_client();
            match s {
                Scheme::Vanilla => {
                    assert_eq!(p.name(), "fifo");
                    assert_eq!(c.name(), "unlimited");
                }
                Scheme::Reflex => {
                    assert_eq!(p.name(), "reflex");
                    assert_eq!(c.name(), "unlimited");
                }
                Scheme::Parda => {
                    assert_eq!(p.name(), "fifo");
                    assert_eq!(c.name(), "parda");
                }
                Scheme::FlashFq => {
                    assert_eq!(p.name(), "flashfq");
                    assert_eq!(c.name(), "unlimited");
                }
                Scheme::Gimbal => {
                    assert_eq!(p.name(), "gimbal");
                    assert_eq!(c.name(), "gimbal-credit");
                }
            }
        }
    }

    #[test]
    fn the_gate_factory_honours_initial_credit_and_flow_control() {
        let params = Params {
            initial_credit_ios: 3,
            ..Params::default()
        };
        let gate = |s: Scheme, flow_control| {
            let mut g = s.client_gate(params, flow_control);
            (g.policy().name(), g.policy().allowance())
        };
        assert_eq!(gate(Scheme::Gimbal, true), ("gimbal-credit", 3));
        assert_eq!(gate(Scheme::Gimbal, false).0, "unlimited");
        assert_eq!(gate(Scheme::Parda, false).0, "parda");
        assert_eq!(gate(Scheme::Reflex, true).0, "unlimited");
        assert_eq!(
            Scheme::Gimbal.make_client().allowance(),
            Params::default().initial_credit_ios
        );
    }

    #[test]
    fn cache_tier_disables_at_zero_capacity() {
        assert!(cache_tier(0, AdmissionPolicy::Always).is_none());
        let c = cache_tier(16, AdmissionPolicy::Never).expect("nonzero capacity");
        assert_eq!(c.capacity_bytes, 16 * 1024 * 1024);
        assert_eq!(c.policy, AdmissionPolicy::Never);
    }

    #[test]
    fn gimbal_costs_more_cpu_than_vanilla() {
        let g = Scheme::Gimbal.cpu_cost(false);
        let v = Scheme::Vanilla.cpu_cost(false);
        assert!(g.total_cycles(4096, true) > v.total_cycles(4096, true));
    }
}
